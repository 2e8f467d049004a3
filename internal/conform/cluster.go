// Cluster conformance: the replicated sharded substrate must commit
// output bit-identical to the sequential oracle — not merely within the
// per-algorithm engine tolerances — because its kernels evaluate the
// oracle's exact float expressions regardless of machine count, replica
// placement or fault history. The chaos matrix leans on this: any drift
// introduced by a rollback/failover/replay shows up as an Exact-policy
// divergence.

package conform

import (
	"context"

	"polymer/internal/cluster"
	"polymer/internal/graph"
)

// ClusterEngine labels cluster divergences in reports.
const ClusterEngine Engine = "cluster"

// CheckCluster runs the algorithm on a cluster shaped by cfg and
// compares the committed output bit-for-bit against the sequential
// oracle. It returns the cluster result (for ledger/health assertions),
// the divergence if any, and an error for invalid configurations or an
// unrecoverable cluster (every replica of some shard lost).
func CheckCluster(g *graph.Graph, cfg cluster.Config, a Algo, src graph.Vertex) (*cluster.Result, *Divergence, error) {
	ca, err := cluster.ParseAlgo(string(a))
	if err != nil {
		return nil, nil, err
	}
	cl, err := cluster.New(g, cfg)
	if err != nil {
		return nil, nil, err
	}
	res, err := cl.Run(context.Background(), ca, src)
	if err != nil {
		return nil, nil, err
	}
	want := Ref(a, g, src)
	cs := Case{Engine: ClusterEngine, Algo: a, Nodes: cfg.Nodes, Cores: cfg.Cores, Src: src}
	return res, Compare(cs, Policy{Exact: true}, want.Out, res.Out), nil
}
