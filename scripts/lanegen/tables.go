package main

// The six bodies. A program's statements are the Go body's loop verbatim
// (each product not itself a factor wrapped in float32 on the way out) and
// the walker's instruction order: a local keeps its value in a register, a
// window read where it is used is a memory operand.
//
// The zone velocity sums start at their x split where the stress sums start
// at +0: a split that has passed fd.Quiesce is never −0, and +0 + x is x
// for every other x, so the +0 would change no bit (a stress split can be
// −0, and +0 + (−0) is +0).

// The staggered-grid stencil's windows: each field at the offsets the
// fourth-order differences read.
const (
	velocityWindows = `ur=u vr=v wr=w bxr=bx byr=by bzr=bz
		xxc=xx xxm1x=xx-1 xxp1x=xx+1 xxp2x=xx+2
		xyc=xy xym2x=xy-2 xym1x=xy-1 xyp1x=xy+1 xym2y=xy-2*gy xym1y=xy-gy xyp1y=xy+gy
		xzc=xz xzm2x=xz-2 xzm1x=xz-1 xzp1x=xz+1 xzm2z=xz-2*gz xzm1z=xz-gz xzp1z=xz+gz
		yyc=yy yym1y=yy-gy yyp1y=yy+gy yyp2y=yy+2*gy
		yzc=yz yzm2y=yz-2*gy yzm1y=yz-gy yzp1y=yz+gy yzm2z=yz-2*gz yzm1z=yz-gz yzp1z=yz+gz
		zzc=zz zzm1z=zz-gz zzp1z=zz+gz zzp2z=zz+2*gz`
	stressWindows = `uc=u um2x=u-2 um1x=u-1 up1x=u+1 um1y=u-gy up1y=u+gy up2y=u+2*gy um1z=u-gz up1z=u+gz up2z=u+2*gz
		vc=v vm1x=v-1 vp1x=v+1 vp2x=v+2 vm2y=v-2*gy vm1y=v-gy vp1y=v+gy vm1z=v-gz vp1z=v+gz vp2z=v+2*gz
		wc=w wm1x=w-1 wp1x=w+1 wp2x=w+2 wm1y=w-gy wp1y=w+gy wp2y=w+2*gy wm2z=w-2*gz wm1z=w-gz wp1z=w+gz
		xxr=xx yyr=yy zzr=zz xyr=xy xzr=xz yzr=yz
		lamr=lam l2mr=l2m mxyr=mxy mxzr=mxz myzr=myz`
	stresses = "xxr yyr zzr xyr xzr yzr"
)

var tables = []*table{{
	pkg: "fd", body: "velocityCells", walker: "velocityTile",
	doc:      "the production velocity kernel, velocityPrecomp's arithmetic",
	grids:    []grid{{"g", "u v w xx xy xz yy yz zz"}, {"m", "bx by bz"}},
	scalars:  "dth c1 c2",
	windows:  velocityWindows,
	pretaper: "ur vr wr",
	program: `
ur[i] = Quiesce(ur[i] + dth*bxr[i]*(c1*(xxp1x[i]-xxc[i])+c2*(xxp2x[i]-xxm1x[i])+
	c1*(xyc[i]-xym1y[i])+c2*(xyp1y[i]-xym2y[i])+
	c1*(xzc[i]-xzm1z[i])+c2*(xzp1z[i]-xzm2z[i])))
vr[i] = Quiesce(vr[i] + dth*byr[i]*(c1*(xyc[i]-xym1x[i])+c2*(xyp1x[i]-xym2x[i])+
	c1*(yyp1y[i]-yyc[i])+c2*(yyp2y[i]-yym1y[i])+
	c1*(yzc[i]-yzm1z[i])+c2*(yzp1z[i]-yzm2z[i])))
wr[i] = Quiesce(wr[i] + dth*bzr[i]*(c1*(xzc[i]-xzm1x[i])+c2*(xzp1x[i]-xzm2x[i])+
	c1*(yzc[i]-yzm1y[i])+c2*(yzp1y[i]-yzm2y[i])+
	c1*(zzp1z[i]-zzc[i])+c2*(zzp2z[i]-zzm1z[i])))`,
}, {
	pkg: "fd", body: "stressCells", walker: "stressTile",
	doc:     "the production elastic stress kernel, stressPrecomp's arithmetic",
	grids:   []grid{{"g", "u v w xx yy zz xy xz yz"}, {"m", "lam l2m mxy mxz myz"}},
	scalars: "dth c1 c2",
	windows: stressWindows,
	taper:   stresses,
	program: `
exx := c1*(uc[i]-um1x[i]) + c2*(up1x[i]-um2x[i])
eyy := c1*(vc[i]-vm1y[i]) + c2*(vp1y[i]-vm2y[i])
ezz := c1*(wc[i]-wm1z[i]) + c2*(wp1z[i]-wm2z[i])
l2m, lam := l2mr[i], lamr[i]
xxr[i] += dth * (l2m*exx + lam*(eyy+ezz))
yyr[i] += dth * (l2m*eyy + lam*(exx+ezz))
zzr[i] += dth * (l2m*ezz + lam*(exx+eyy))
xyr[i] += dth * mxyr[i] * (c1*(up1y[i]-uc[i]) + c2*(up2y[i]-um1y[i]) +
	c1*(vp1x[i]-vc[i]) + c2*(vp2x[i]-vm1x[i]))
xzr[i] += dth * mxzr[i] * (c1*(up1z[i]-uc[i]) + c2*(up2z[i]-um1z[i]) +
	c1*(wp1x[i]-wc[i]) + c2*(wp2x[i]-wm1x[i]))
yzr[i] += dth * myzr[i] * (c1*(vp1z[i]-vc[i]) + c2*(vp2z[i]-vm1z[i]) +
	c1*(wp1y[i]-wc[i]) + c2*(wp2y[i]-wm1y[i]))`,
}, {
	pkg: "attenuation", body: "fusedCells", walker: "fusedStressTile",
	doc: "FusedStress, the elastic update and the memory variables' in one pass",
	grids: []grid{{"g", "u v w xx yy zz xy xz yz"},
		{"m", "lam l2m mxy mxz myz zxx zyy zzz zxy zxz zyz dlam dmu"}},
	scalars:    "dth c1 c2",
	parity:     "tab",
	parityVals: "am cm",
	windows: stressWindows + `
		zxxr=zxx zyyr=zyy zzzr=zzz zxyr=zxy zxzr=zxz zyzr=zyz dlamr=dlam dmur=dmu`,
	taper: stresses,
	program: `
exx := c1*(uc[i]-um1x[i]) + c2*(up1x[i]-um2x[i])
eyy := c1*(vc[i]-vm1y[i]) + c2*(vp1y[i]-vm2y[i])
ezz := c1*(wc[i]-wm1z[i]) + c2*(wp1z[i]-wm2z[i])
l2m, lam := l2mr[i], lamr[i]
xxr[i] += dth * (l2m*exx + lam*(eyy+ezz))
yyr[i] += dth * (l2m*eyy + lam*(exx+ezz))
zzr[i] += dth * (l2m*ezz + lam*(exx+eyy))
aexx := dth * exx
aeyy := dth * eyy
aezz := dth * ezz
dlam := dlamr[i]
dl2m := dlam + 2*dmur[i]
trace := dlam * (aexx + aeyy + aezz)
drive := cm * (dl2m*aexx + trace - dlam*aexx)
z := zxxr[i]
zn := am*z + drive
xxr[i] += zn - z
zxxr[i] = zn
drive = cm * (dl2m*aeyy + trace - dlam*aeyy)
z = zyyr[i]
zn = am*z + drive
yyr[i] += zn - z
zyyr[i] = zn
drive = cm * (dl2m*aezz + trace - dlam*aezz)
z = zzzr[i]
zn = am*z + drive
zzr[i] += zn - z
zzzr[i] = zn
dmu := dmur[i]
dxy := c1*(up1y[i]-uc[i]) + c2*(up2y[i]-um1y[i]) + c1*(vp1x[i]-vc[i]) + c2*(vp2x[i]-vm1x[i])
xyr[i] += dth * mxyr[i] * dxy
drive = cm * (dmu * (dth * dxy))
z = zxyr[i]
zn = am*z + drive
xyr[i] += zn - z
zxyr[i] = zn
dxz := c1*(up1z[i]-uc[i]) + c2*(up2z[i]-um1z[i]) + c1*(wp1x[i]-wc[i]) + c2*(wp2x[i]-wm1x[i])
xzr[i] += dth * mxzr[i] * dxz
drive = cm * (dmu * (dth * dxz))
z = zxzr[i]
zn = am*z + drive
xzr[i] += zn - z
zxzr[i] = zn
dyz := c1*(vp1z[i]-vc[i]) + c2*(vp2z[i]-vm1z[i]) + c1*(wp1y[i]-wc[i]) + c2*(wp2y[i]-wm1y[i])
yzr[i] += dth * myzr[i] * dyz
drive = cm * (dmu * (dth * dyz))
z = zyzr[i]
zn = am*z + drive
yzr[i] += zn - z
zyzr[i] = zn`,
}, {
	pkg: "boundary", body: "pmlVelocityCells", walker: "pmlVelocityTile",
	doc: "the M-PML velocity update of a zone tile, split by split",
	grids: []grid{{"g", "u v w xx xy xz yy yz zz"}, {"m", "bx by bz"},
		{"s", "xu xv xw yu yv yw zu zv zw"}, {"c", "coef"}},
	ints:    "nx",
	scalars: "dth c1 c2",
	windows: velocityWindows + `
		xur=xu xvr=xv xwr=xw yur=yu yvr=yv ywr=yw zur=zu zvr=zv zwr=zw
		decx=coef gainx=coef+nx decy=coef+2*nx gainy=coef+3*nx decz=coef+4*nx gainz=coef+5*nx`,
	program: `
db := dth * bxr[i]
tx := db * (c1*(xxp1x[i]-xxc[i]) + c2*(xxp2x[i]-xxm1x[i]))
ty := db * (c1*(xyc[i]-xym1y[i]) + c2*(xyp1y[i]-xym2y[i]))
tz := db * (c1*(xzc[i]-xzm1z[i]) + c2*(xzp1z[i]-xzm2z[i]))
qx := fd.Quiesce(decx[i]*xur[i] + gainx[i]*tx)
xur[i] = qx
qy := fd.Quiesce(decy[i]*yur[i] + gainy[i]*ty)
yur[i] = qy
qz := fd.Quiesce(decz[i]*zur[i] + gainz[i]*tz)
zur[i] = qz
ur[i] = fd.Quiesce(qx + qy + qz)
db = dth * byr[i]
tx = db * (c1*(xyc[i]-xym1x[i]) + c2*(xyp1x[i]-xym2x[i]))
ty = db * (c1*(yyp1y[i]-yyc[i]) + c2*(yyp2y[i]-yym1y[i]))
tz = db * (c1*(yzc[i]-yzm1z[i]) + c2*(yzp1z[i]-yzm2z[i]))
qx = fd.Quiesce(decx[i]*xvr[i] + gainx[i]*tx)
xvr[i] = qx
qy = fd.Quiesce(decy[i]*yvr[i] + gainy[i]*ty)
yvr[i] = qy
qz = fd.Quiesce(decz[i]*zvr[i] + gainz[i]*tz)
zvr[i] = qz
vr[i] = fd.Quiesce(qx + qy + qz)
db = dth * bzr[i]
tx = db * (c1*(xzc[i]-xzm1x[i]) + c2*(xzp1x[i]-xzm2x[i]))
ty = db * (c1*(yzc[i]-yzm1y[i]) + c2*(yzp1y[i]-yzm2y[i]))
tz = db * (c1*(zzp1z[i]-zzc[i]) + c2*(zzp2z[i]-zzm1z[i]))
qx = fd.Quiesce(decx[i]*xwr[i] + gainx[i]*tx)
xwr[i] = qx
qy = fd.Quiesce(decy[i]*ywr[i] + gainy[i]*ty)
ywr[i] = qy
qz = fd.Quiesce(decz[i]*zwr[i] + gainz[i]*tz)
zwr[i] = qz
wr[i] = fd.Quiesce(qx + qy + qz)`,
}, {
	pkg: "boundary", body: "pmlStressCells", walker: "pmlStressTile",
	doc: "the M-PML stress update of a zone tile, split by split",
	grids: []grid{{"g", "u v w xx yy zz xy xz yz"}, {"m", "lam l2m mxy mxz myz"},
		{"s", "xxx xyy xzz xxy xxz yxx yyy yzz yxy yyz zxx zyy zzz zxz zyz"}, {"c", "coef"}},
	ints:    "nx",
	scalars: "dth c1 c2",
	windows: stressWindows + `
		xxxr=xxx xyyr=xyy xzzr=xzz xxyr=xxy xxzr=xxz yxxr=yxx yyyr=yyy yzzr=yzz yxyr=yxy yyzr=yyz
		zxxr=zxx zyyr=zyy zzzr=zzz zxzr=zxz zyzr=zyz
		decx=coef gainx=coef+nx decy=coef+2*nx gainy=coef+3*nx decz=coef+4*nx gainz=coef+5*nx`,
	program: `
exx := dth * (c1*(uc[i]-um1x[i]) + c2*(up1x[i]-um2x[i]))
eyy := dth * (c1*(vc[i]-vm1y[i]) + c2*(vp1y[i]-vm2y[i]))
ezz := dth * (c1*(wc[i]-wm1z[i]) + c2*(wp1z[i]-wm2z[i]))
lam, l2m := lamr[i], l2mr[i]
var sxx, syy, szz, sxy, sxz, syz float32
n := decx[i]*xxxr[i] + gainx[i]*(l2m*exx)
xxxr[i] = n
sxx += n
n = decy[i]*yxxr[i] + gainy[i]*(lam*eyy)
yxxr[i] = n
sxx += n
n = decz[i]*zxxr[i] + gainz[i]*(lam*ezz)
zxxr[i] = n
sxx += n
xxr[i] = sxx
n = decx[i]*xyyr[i] + gainx[i]*(lam*exx)
xyyr[i] = n
syy += n
n = decy[i]*yyyr[i] + gainy[i]*(l2m*eyy)
yyyr[i] = n
syy += n
n = decz[i]*zyyr[i] + gainz[i]*(lam*ezz)
zyyr[i] = n
syy += n
yyr[i] = syy
n = decx[i]*xzzr[i] + gainx[i]*(lam*exx)
xzzr[i] = n
szz += n
n = decy[i]*yzzr[i] + gainy[i]*(lam*eyy)
yzzr[i] = n
szz += n
n = decz[i]*zzzr[i] + gainz[i]*(l2m*ezz)
zzzr[i] = n
szz += n
zzr[i] = szz
dvx := dth * (c1*(vp1x[i]-vc[i]) + c2*(vp2x[i]-vm1x[i]))
duy := dth * (c1*(up1y[i]-uc[i]) + c2*(up2y[i]-um1y[i]))
mu := mxyr[i]
n = decx[i]*xxyr[i] + gainx[i]*(mu*dvx)
xxyr[i] = n
sxy += n
n = decy[i]*yxyr[i] + gainy[i]*(mu*duy)
yxyr[i] = n
sxy += n
xyr[i] = sxy
dwx := dth * (c1*(wp1x[i]-wc[i]) + c2*(wp2x[i]-wm1x[i]))
duz := dth * (c1*(up1z[i]-uc[i]) + c2*(up2z[i]-um1z[i]))
mu = mxzr[i]
n = decx[i]*xxzr[i] + gainx[i]*(mu*dwx)
xxzr[i] = n
sxz += n
n = decz[i]*zxzr[i] + gainz[i]*(mu*duz)
zxzr[i] = n
sxz += n
xzr[i] = sxz
dwy := dth * (c1*(wp1y[i]-wc[i]) + c2*(wp2y[i]-wm1y[i]))
dvz := dth * (c1*(vp1z[i]-vc[i]) + c2*(vp2z[i]-vm1z[i]))
mu = myzr[i]
n = decy[i]*yyzr[i] + gainy[i]*(mu*dwy)
yyzr[i] = n
syz += n
n = decz[i]*zyzr[i] + gainz[i]*(mu*dvz)
zyzr[i] = n
syz += n
yzr[i] = syz`,
}, {
	pkg: "boundary", body: "dampCells", walker: "dampRows8",
	doc:        "the sponge's damping of one array's rows",
	grids:      []grid{{"g", "x"}},
	windows:    "xr=x",
	taper:      "xr",
	scalarTail: true,
}}
