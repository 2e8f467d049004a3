package algorithms

import (
	"polymer/internal/core"
	"polymer/internal/engines/ligra"
	"polymer/internal/sg"
	"polymer/internal/state"
)

// edgeMap routes an EdgeMap to the engine's generic entry point when the
// concrete engine type is known; other engines get the interface method.
// Instantiating core.EdgeMapK / ligra.EdgeMapK at the concrete kernel type
// saves boxing the kernel into an sg.EdgeKernel and nothing per edge: Go
// calls a type parameter's methods through the generic dictionary, so
// Cond/Update/UpdateAtomic stay indirect, out-of-line calls on either
// route. The loop the compiler does inline is the kernel's own: PR, SpMV
// and BP implement sg.RowKernel and are passed by pointer so the engines
// find it without an allocation.
func edgeMap[K sg.EdgeKernel](e sg.Engine, a *state.Subset, k K, h sg.Hints) *state.Subset {
	switch t := e.(type) {
	case *core.Engine:
		return core.EdgeMapK(t, a, k, h)
	case *ligra.Engine:
		return ligra.EdgeMapK(t, a, k, h)
	default:
		return e.EdgeMap(a, k, h)
	}
}
