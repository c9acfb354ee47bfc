// Command e2ebench is the repository's end-to-end benchmark: it runs whole
// multi-task jobs the way cmd/vcrun and internal/serve run them, checks
// their outputs, and prints one JSON result line.
//
// Usage (from the repository root, normally through e2ebench/run.sh):
//
//	e2ebench --workload mssp-lj --seed 1 --seconds 20 --trace 0
//
// Workloads: mssp-lj, bppr-lj and bppr-ooc run one vcrun-style batch job
// after another; serve-mix drives an in-process serve.Server with an
// open-loop arrival schedule. The seed drives every generated input
// (sources, task RNG seed, arrival times); dataset replicas keep their
// Table 1 seeds. --trace 0 prints the end-to-end metrics; --trace 1 runs
// half its time untraced and half traced, prints the per-layer metrics,
// and writes a Chrome trace of the traced half. README.md lists every
// metric and which end-to-end metric each layer metric should move.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vcmt/internal/obs"
)

// runConfig is one invocation.
type runConfig struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	outDir    string
	setupReps int // set-up repetitions; setup_s is their median
	minJobs   int // batch jobs per measured half, at least
}

// maxGeneratorLate is how far behind its schedule the serve-mix generator
// may fall before the run is marked invalid.
const maxGeneratorLate = 0.05

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "mssp-lj, bppr-lj, bppr-ooc or serve-mix")
	seed := fl.Uint64("seed", 1, "workload seed: sources, task RNG seed, arrival times")
	seconds := fl.Float64("seconds", 20, "measured seconds")
	trace := fl.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics from a traced run")
	outDir := fl.String("out", ".bench_build/e2ebench", "directory for results, traces and scratch files")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "e2ebench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	c := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		outDir: *outDir, setupReps: 3, minJobs: 3,
	}
	if c.trace {
		c.minJobs = 2 // per half, so a traced run takes about as long as a plain one
	}
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	res, err := measure(c, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := writeLine(stdout, res); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs the workload, writes the result file and the trace, prints
// the provenance line, and returns the result line.
func measure(c runConfig, stdout, stderr io.Writer) (Result, error) {
	var (
		vals map[string]float64
		t    *tally
		sp   *spans
		err  error
	)
	steal0, total0 := hostCPU()
	if sh, ok := batchShapes[c.workload]; ok {
		vals, t, sp, err = runBatchWorkload(c, sh)
	} else if c.workload == "serve-mix" {
		vals, t, sp, err = runServeWorkload(c, serveMix)
	} else {
		return Result{}, fmt.Errorf("unknown workload %q (want mssp-lj, bppr-lj, bppr-ooc or serve-mix)", c.workload)
	}
	if err != nil {
		return Result{}, err
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", c.workload, c.seed, map[bool]int{false: 0, true: 1}[c.trace])
	if sp != nil {
		n, err := writeTrace(sp, filepath.Join(c.outDir, "trace-"+base+".json"))
		t.check(err == nil, "chrome trace: %v", err)
		vals["trace.spans"] = float64(n)
	}
	vals["failed_frac"] = float64(t.failed) / float64(max(t.attempted, 1))
	if steal1, total1 := hostCPU(); total1 > total0 {
		vals["host.steal_frac"] = float64(steal1-steal0) / float64(total1-total0)
	}

	prov := provenance()
	valid := c.workload != "serve-mix" || vals["gen.late_s_max"] <= maxGeneratorLate
	if !valid {
		fmt.Fprintf(stderr, "e2ebench: INVALID run: the generator ran %.3f s behind its schedule (limit %g s)\n",
			vals["gen.late_s_max"], maxGeneratorLate)
	}
	for _, e := range t.errs {
		fmt.Fprintln(stderr, "e2ebench: FAIL:", e)
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	res, err := result(defs, vals, t)
	if err != nil {
		return res, err
	}
	values := map[string]any{}
	for k, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			values[k] = fmt.Sprint(v) // JSON has no number for these
		} else {
			values[k] = v
		}
	}
	record := map[string]any{
		"workload": c.workload, "seed": c.seed, "seconds": c.seconds, "trace": c.trace,
		"valid": valid, "provenance": prov, "values": values, "errors": t.errs, "result": res,
	}
	if err := writeJSONFile(filepath.Join(c.outDir, "result-"+base+".json"), record); err != nil {
		return res, err
	}
	return res, writeLine(stdout, map[string]any{"provenance": prov, "valid": valid})
}

// writeTrace exports the spans as Chrome trace JSON and validates the file
// with the repository's strict decoder; it returns the span count.
func writeTrace(sp *spans, path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	if err := sp.t.WriteChromeTrace(w); err != nil {
		f.Close()
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return obs.ValidateChromeTrace(data)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resetPeakRSS restarts the kernel's peak-RSS (VmHWM) count from the
// current resident set; it reports false where the kernel does not allow it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	// Without procfs, the memory obtained from the OS is the closest bound.
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// processCPU is the process's CPU time so far, user plus system, all
// threads (the Go runtime's GC workers included).
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// hostCPU reads the host's steal and total CPU time (in clock ticks, all
// CPUs) from /proc/stat; steal is time the hypervisor ran something else
// on this machine's virtual CPUs. Both are 0 where /proc/stat is missing.
func hostCPU() (steal, total uint64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// provenance records what produced a result: toolchain, parallelism, CPU,
// and the code (the VCS revision when the build has one, and always a
// digest of the module's Go sources and go.mod).
func provenance() map[string]any {
	p := map[string]any{
		"go":         runtime.Version(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu":        cpuModel(),
		"source":     sourceDigest(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" || s.Key == "vcs.modified" {
				p[s.Key] = s.Value
			}
		}
	}
	return p
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes go.mod and every .go file of the module under test,
// found as the nearest directory (this one or its parent) holding the
// vcmt go.mod. It stands in for the commit where there is no repository.
func sourceDigest() string {
	root := ""
	for _, dir := range []string{".", ".."} {
		if b, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(b), "module vcmt\n") {
			root = dir
			break
		}
	}
	if root == "" {
		return "unknown"
	}
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || path == filepath.Join(root, "go.mod")) {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return "unknown"
	}
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return "unknown"
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
	}
	return "sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
