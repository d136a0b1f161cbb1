// Package asmstub exercises the allocfree check on calls into body-less
// (assembly) functions: escape analysis cannot see their bodies, so
// without //go:noescape every pointer or slice they receive escapes.
package asmstub

//go:noescape
func kernelNoescape(x []float64, st *[4]float64)

func kernelEscapes(x []float64, st *[4]float64)

func kernelScalar(n int, f float64) float64

//softlora:allocfree
func callsAsm(x []float64) float64 {
	var st [4]float64
	kernelNoescape(x, &st)             // no diagnostic: declared //go:noescape
	kernelEscapes(st[:], nil)          // want `allocation in an allocfree function: passes a slice to body-less function kernelEscapes declared without //go:noescape`
	kernelEscapes(nil, &st)            // want `allocation in an allocfree function: passes a pointer to body-less function kernelEscapes declared without //go:noescape`
	return kernelScalar(len(x), st[0]) // no diagnostic: scalar arguments only
}

//softlora:allocfree
func hatched(x []float64) {
	//softlora:allocfree-ok fixture: the caller accepts the escape
	kernelEscapes(x, nil)
}

// helper is un-annotated; its offense reaches the allocfree caller below
// through the call graph.
func helper(buf []float64) { kernelEscapes(buf, nil) }

//softlora:allocfree
func callsHelper(x []float64) {
	helper(x) // want `allocfree function reaches an allocation: asmstub\.callsHelper → asmstub\.helper: asmstub\.helper passes a slice to body-less function kernelEscapes declared without //go:noescape`
}
