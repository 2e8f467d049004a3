// Command benchmark is this repository's benchmark: four workloads on two
// clocks, end to end and layer by layer. README.md beside this file says
// what each workload and metric is for; BENCHMARK.json at the repository
// root is the contract it is run under.
//
//	go run ./benchmark -workload engine-dense|engine-sparse|serve-hot|serve-churn|all
//	                   [-seed n] [-seconds s] [-trace 0|1|file] [-out file]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"time"
)

var workloads = []string{"engine-dense", "engine-sparse", "serve-hot", "serve-churn"}

// result is the one JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "all", "one of the four workloads, or all (each in its own child process)")
	seed := flag.Uint64("seed", 1, "seed for every generated input")
	seconds := flag.Float64("seconds", 0, "sizes the measured phase: the ops the reference box times in this long (default: run_seconds of BENCHMARK.json)")
	trace := flag.String("trace", "0", "0 = end-to-end metrics; 1 or a file name = the traced run: per-layer metrics, spans written out")
	out := flag.String("out", "", "also write the JSON result here")
	flag.Parse()

	// One OS thread and one GC setting, set here so the environment cannot
	// change what is measured: on shared vCPUs the same engine op took
	// 180-290 ms at GOMAXPROCS=2 and 261-271 ms at 1.
	runtime.GOMAXPROCS(1)
	debug.SetGCPercent(100)

	mf, err := loadManifest(manifestPath)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if *seconds <= 0 {
		*seconds = float64(mf.RunSeconds)
	}

	var enc []byte
	failed := false
	if *workload == "all" {
		enc, failed = runAll()
	} else {
		e := &env{seed: *seed, seconds: *seconds, cal: newCalibrator()}
		m := newMetricSet()
		var (
			p   *phase
			err error
		)
		if *trace == "0" {
			p, err = runUntraced(*workload, e, m)
		} else {
			p, err = runTraced(*workload, e, m, *trace)
		}
		if err == nil {
			err = mf.check(*trace != "0", m)
		}
		if err != nil {
			logf("%s: %v", *workload, err)
			os.Exit(1)
		}
		for _, name := range m.order {
			fmt.Printf("%s/%s %v %s\n", *workload, name, m.vals[name].Value, m.vals[name].Unit)
		}
		fmt.Printf("%s/ops_attempted %d count\n%s/ops_failed %d count\n", *workload, p.attempted, *workload, p.failed)
		failed = p.failed != 0
		enc, _ = json.Marshal(result{Correct: !failed, Attempted: p.attempted, Failed: p.failed, Metrics: m.vals})
	}
	if *out != "" {
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
	}
	fmt.Println(string(enc))
	if failed {
		os.Exit(1)
	}
}

func runUntraced(workload string, e *env, m *metricSet) (*phase, error) {
	switch workload {
	case "engine-dense", "engine-sparse":
		return runEngineWorkload(engineSpecs[workload], e, m)
	case "serve-hot":
		return runServeWorkload(false, e, m)
	case "serve-churn":
		return runServeWorkload(true, e, m)
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// runAll runs every workload in a child process of its own, so that
// peak_rss_mb is the workload's and not the sum of those before it. The
// arguments other than -workload and -out pass through.
func runAll() (enc []byte, failed bool) {
	self, err := os.Executable()
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	var pass []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "workload" && f.Name != "out" {
			pass = append(pass, "-"+f.Name+"="+f.Value.String())
		}
	})
	start := time.Now()
	all := make(map[string]json.RawMessage)
	for _, w := range workloads {
		cmd := exec.Command(self, append([]string{"-workload", w}, pass...)...)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
		fmt.Println()
		if err != nil {
			logf("%s: %v", w, err)
			failed = true
			continue
		}
		all[w] = lines[len(lines)-1]
	}
	logf("all workloads: %.1f s wall", time.Since(start).Seconds())
	enc, _ = json.Marshal(all)
	return enc, failed
}
