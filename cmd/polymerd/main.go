// Command polymerd serves graph-analytics requests over HTTP/JSON with
// production robustness: bounded admission with load shedding, per-request
// deadlines, in-run rollback and replay with restarts of fault-injected
// runs, graceful drain on SIGTERM/SIGINT, and an execution-reuse layer —
// identical in-flight requests coalesce into one run, traversal point
// queries batch into multi-source sweeps, and results replay from a
// versioned cache until the dataset is invalidated. A response is a
// function of its body: a failed run is a 500 for the request that sent
// it and for no other.
//
// Requests that omit "system" (or say "auto") hand the engine, placement
// and width choice to the cost-model planner, which learns online from
// the traffic it observes; responses carry the decision under "plan".
//
// Usage:
//
//	polymerd -addr :8080 -queue 64 -workers 4 -budget 30s
//
//	curl -s localhost:8080/run -d '{"algo":"pr","system":"polymer","graph":"powerlaw","scale":"tiny"}'
//	curl -s localhost:8080/run -d '{"algo":"pr","graph":"powerlaw","scale":"tiny"}'   # planner chooses
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metricsz
//	curl -s -X POST 'localhost:8080/invalidatez?graph=powerlaw'   # dataset refresh hook
//	curl -s localhost:8080/debugz/trace   # flight recorder dump
//
// With -wal-dir set, streaming mutations are enabled: POST /mutatez
// appends a batch of edge inserts/deletes to a crash-consistent
// write-ahead log, publishes a new graph snapshot, and bumps the
// dataset's generation so cached results invalidate automatically:
//
//	polymerd -addr :8080 -wal-dir /var/lib/polymerd/wal
//	curl -s localhost:8080/mutatez -d '{"graph":"roadUS","scale":"tiny","ops":[{"op":"insert","src":0,"dst":575,"wt":0.5}]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"polymer/internal/mutate"
	"polymer/internal/obs"
	"polymer/internal/serve"
)

func main() {
	addrFlag := flag.String("addr", ":8080", "listen address")
	queueFlag := flag.Int("queue", 64, "admission queue depth (full queue sheds with 429)")
	workersFlag := flag.Int("workers", 4, "concurrent request executions")
	budgetFlag := flag.Duration("budget", 30*time.Second, "default per-request wall-clock budget")
	drainFlag := flag.Duration("drain", 5*time.Second, "graceful drain deadline on SIGTERM")
	cacheFlag := flag.Int64("graph-cache-bytes", 0, "graph cache budget in topology bytes (0 = 1 GiB default, negative = unbounded)")
	resultCacheFlag := flag.Int64("result-cache-bytes", 0, "result cache budget in bytes (0 = 64 MiB default, negative disables)")
	noShareFlag := flag.Bool("no-share", false, "disable run sharing: no coalescing onto identical runs, no multi-source traversal sweeps")
	traceReqFlag := flag.Int("trace-requests", 256, "flight recorder: last N request spans kept for /debugz/trace (0 disables the recorder with -trace-steps 0)")
	traceStepFlag := flag.Int("trace-steps", 4096, "flight recorder: last N engine/fault events kept for /debugz/trace")
	pprofFlag := flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	walDirFlag := flag.String("wal-dir", "", "mutation write-ahead log directory (empty disables POST /mutatez)")
	ckptFlag := flag.Int("checkpoint-every", 0, "commits per key between WAL checkpoints (0 = default, negative disables)")
	noLearnFlag := flag.Bool("no-learn", false, "freeze the planner's online learner (engine=auto still plans, but stops adapting to observed traffic)")
	flag.Parse()

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	// The flight recorder is the server's always-on trace sink: fixed-size
	// rings, so steady-state overhead is bounded regardless of uptime.
	var (
		rec *obs.Recorder
		tr  *obs.Tracer
	)
	if *traceReqFlag > 0 || *traceStepFlag > 0 {
		rec = obs.NewRecorder(*traceReqFlag, *traceStepFlag)
		tr = obs.New(rec)
	}
	// The mutation store replays committed batches from the WAL in the
	// background after the listener opens; /readyz reports 503 until the
	// replay finishes, so load balancers hold traffic instead of racing
	// recovery. closeMut runs on every exit path — including a forced
	// drain with a hung request and a listener error — and is safe there:
	// a commit that loses the race fails with ErrClosed instead of
	// appending to a closed WAL.
	var mut *mutate.Store
	if *walDirFlag != "" {
		var err error
		mut, err = mutate.Open(*walDirFlag, mutate.Options{CheckpointEvery: *ckptFlag})
		if err != nil {
			fmt.Fprintf(os.Stderr, "polymerd: opening mutation log: %v\n", err)
			os.Exit(1)
		}
		logger.Info("mutation log open", slog.String("dir", *walDirFlag))
	}
	closeMut := func() {
		if mut == nil {
			return
		}
		if err := mut.Close(); err != nil {
			logger.Error("mutation log close", slog.String("error", err.Error()))
		}
	}
	srv := serve.NewServer(serve.Config{
		QueueDepth:       *queueFlag,
		Workers:          *workersFlag,
		DefaultBudget:    *budgetFlag,
		DrainTimeout:     *drainFlag,
		GraphCacheBytes:  *cacheFlag,
		ResultCacheBytes: *resultCacheFlag,
		DisableSharing:   *noShareFlag,
		DisableLearning:  *noLearnFlag,
		Tracer:           tr,
		Recorder:         rec,
		Logger:           logger,
		Mutations:        mut,
	})
	srv.RecoverInBackground()

	handler := srv.Handler()
	if *pprofFlag {
		// The service mux uses strict method patterns, so mount pprof on a
		// wrapper mux rather than relying on the DefaultServeMux side effects.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
	}
	httpSrv := &http.Server{Addr: *addrFlag, Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		logger.Info("polymerd listening", slog.String("addr", *addrFlag))
		errCh <- httpSrv.ListenAndServe()
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	select {
	case <-sigCtx.Done():
		logger.Info("drain: signal received, refusing new work")
		// Stop admitting and let in-flight work finish (or be cancelled at
		// the drain deadline), then close the listener.
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainFlag+5*time.Second)
		defer cancel()
		if err := srv.Shutdown(drainCtx); err != nil {
			logger.Error("drain: forced", slog.String("error", err.Error()))
		}
		if err := httpSrv.Shutdown(drainCtx); err != nil {
			logger.Error("http shutdown", slog.String("error", err.Error()))
		}
		// Every acked mutation is already fsynced at its commit point, so
		// closing here — even after a forced drain left a request hung —
		// loses nothing; the straggler's commit gets ErrClosed.
		closeMut()
		logger.Info("polymerd drained")
	case err := <-errCh:
		closeMut()
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "polymerd: %v\n", err)
			os.Exit(1)
		}
	}
}
