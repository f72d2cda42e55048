package meshgen

import (
	"encoding/binary"
	"math"

	"repro/internal/cvm"
)

// appendRecords appends the mesh records of mats to b: Vp, Vs and rho of
// each point as little-endian float32s, RecBytes a point. It writes through
// append into the round's buffer, whose capacity holds the round, so the
// loop carries no bounds checks: scripts/check_bce.sh guards this file.
func appendRecords(b []byte, mats []cvm.Material) []byte {
	for _, m := range mats {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(m.Vp)))
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(m.Vs)))
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(m.Rho)))
	}
	return b
}
