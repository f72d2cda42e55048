package core

// Settings holds one exported field for each case of the set rule.
type Settings struct {
	OwnTest   int    // set by this package's test only: fails
	Nowhere   int    // read below, set nowhere: fails
	Nested    Pair   // set through s.Nested.A += 1: passes
	List      []int  // set through s.List[0] = 1: passes
	Addr      int    // set through &s.Addr: passes
	Gauge     Gauge  // set through s.Gauge.Bump(), a pointer method: passes
	BenchOnly int    // bench-only: set by bench/ only, and marked: passes
	BenchBare int    // set by bench/ only, unmarked: fails
	Marked    int    // bench-only: but Apply sets it: fails
	OtherTest int    // set by orphan's test only: fails
	Pair      Pair   // set by the keyed literal below: passes
	Note      string // set by the keyed literal below: passes
	Defaulted int    // set only by the default below: fails
	Floor     int    // raised under if s.Floor <= 5, which is no default: passes
	Clamp     int    // clamped under if s.Clamp < 0, which is no default: passes
}

// Pair's fields are set by an unkeyed literal: pass.
type Pair struct{ A, B int }

// Gauge counts; Bump has a pointer receiver.
type Gauge struct{ n int }

// Bump reads and sets g.n.
func (g *Gauge) Bump() { g.n++ }

// counter holds the cases of the read rule.
type counter struct {
	dead int // set below, read nowhere: fails
	live int // read below: passes
}

// Apply sets and reads the fields above.
func Apply() int {
	s := Settings{Pair: Pair{1, 2}, Note: "n", Marked: 1}
	s.Nested.A += 1
	s.List[0] = 1
	p := &s.Addr
	s.Gauge.Bump()
	if s.Defaulted <= 0 {
		s.Defaulted = 3
	}
	if s.Floor <= 5 {
		s.Floor = 6
	}
	if s.Clamp < 0 {
		s.Clamp = 0
	}
	c := counter{dead: 1, live: 2}
	return s.Nowhere + *p + c.live
}
