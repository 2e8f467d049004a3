package par

import (
	"context"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"polymer/internal/barrier"
)

// goid returns the calling goroutine's id, parsed from its stack header
// ("goroutine 17 [running]:"). Ids are never reused within a process.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	id, err := strconv.ParseUint(strings.Fields(string(buf[:n]))[1], 10, 64)
	if err != nil {
		panic(err)
	}
	return id
}

// TestRunSchedule pins the documented assignment: at W = min(GOMAXPROCS,
// nodes), host worker i runs exactly the threads of nodes
// [i*nodes/W, (i+1)*nodes/W), in ascending id, the caller being worker 0;
// and Workers reports that W, the number of goroutines Run really used.
func TestRunSchedule(t *testing.T) {
	for _, shape := range [][2]int{{8, 10}, {3, 4}, {5, 1}, {1, 6}} {
		nodes, cpn := shape[0], shape[1]
		for _, procs := range []int{1, 2, 3, nodes, nodes + 5} {
			p, err := NewNodePool(nodes, cpn)
			if err != nil {
				t.Fatal(err)
			}
			prev := runtime.GOMAXPROCS(procs)
			var mu sync.Mutex
			ran := map[uint64][]int{}
			workers := p.Workers()
			err = p.Run(func(th int) {
				id := goid()
				mu.Lock()
				ran[id] = append(ran[id], th)
				mu.Unlock()
			})
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			w := min(procs, nodes)
			if len(ran) != w || workers != w {
				t.Fatalf("%dx%d at GOMAXPROCS=%d: %d host workers, Workers() = %d, want %d", nodes, cpn, procs, len(ran), workers, w)
			}
			for i := 0; i < w; i++ {
				var want []int
				for th := i * nodes / w * cpn; th < (i+1)*nodes/w*cpn; th++ {
					want = append(want, th)
				}
				// The worker is whichever goroutine ran the block's first thread.
				var got []int
				for _, ths := range ran {
					if ths[0] == want[0] {
						got = ths
					}
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%dx%d at GOMAXPROCS=%d: worker %d ran %v, want %v", nodes, cpn, procs, i, got, want)
				}
			}
			if got := ran[goid()]; len(got) == 0 || got[0] != 0 {
				t.Fatalf("%dx%d at GOMAXPROCS=%d: caller ran %v, want worker 0's share", nodes, cpn, procs, got)
			}
		}
	}
}

// A failure in simulated thread k is reported with k's id, the first one
// wins, and the threads that follow k on the same host worker still run.
func TestRunFailureDoesNotSkipFollowers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, err := NewNodePool(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, viaHook := range []bool{false, true} {
		ran := make([]bool, p.Threads())
		fail := func(th int) bool { return th == 2 || th == 5 }
		if viaHook {
			p.SetHook(func(th int) error {
				if fail(th) {
					return errStub
				}
				return nil
			})
		}
		err := p.Run(func(th int) {
			if !viaHook && fail(th) {
				panic(th)
			}
			ran[th] = true
		})
		p.SetHook(nil)
		var pe *PanicError
		switch {
		case viaHook && !errors.Is(err, errStub):
			t.Fatalf("hook failure reported as %v", err)
		case !viaHook && (!errors.As(err, &pe) || pe.Thread != 2):
			t.Fatalf("panic reported as %v, want *PanicError{Thread: 2}", err)
		}
		for th, ok := range ran {
			if ok == fail(th) {
				t.Fatalf("viaHook=%v: thread %d ran=%v", viaHook, th, ok)
			}
		}
	}
}

func TestRunDoesNotAllocate(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, err := NewNodePool(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := p.Run(func(int) {}); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Pool.Run allocates %v times per dispatch, want 0", n)
	}
}

// RunConcurrent really is one goroutine per simulated thread: an n-party
// barrier inside the phase completes on a single P.
func TestRunConcurrentCompletesBarrier(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	p, err := NewNodePool(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := barrier.New(barrier.N, 4, 3)
	done := make(chan error, 1)
	go func() {
		done <- p.RunConcurrent(context.Background(), func(th int) {
			for r := 0; r < 10; r++ {
				b.Wait(th)
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("barrier phase did not complete: threads are sharing a goroutine")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.RunConcurrent(ctx, func(int) { t.Error("dispatched past a cancelled context") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunConcurrent = %v, want context.Canceled", err)
	}
}

// Run executes the threads of a host worker one after another, so a body
// that waits for another thread would hang it. Scan every non-test file
// in the module: no function literal handed to Run, RunCtx or an engine's
// runPhase may block on a barrier, yield-spin, or touch a channel.
func TestRunIsNeverHandedAWaitingBody(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "../.." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Run" && sel.Sel.Name != "RunCtx" && sel.Sel.Name != "RunPhase" && sel.Sel.Name != "runPhase") {
				return true
			}
			body, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
			if !ok {
				return true
			}
			ast.Inspect(body, func(n ast.Node) bool {
				bad := ""
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if n.Sel.Name == "Wait" || n.Sel.Name == "Gosched" {
						bad = n.Sel.Name
					}
				case *ast.SendStmt, *ast.SelectStmt:
					bad = "channel operation"
				case *ast.UnaryExpr:
					if n.Op == token.ARROW {
						bad = "channel receive"
					}
				}
				if bad != "" {
					t.Errorf("%s: phase body handed to %s waits (%s); use RunConcurrent",
						fset.Position(n.Pos()), sel.Sel.Name, bad)
				}
				return true
			})
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
