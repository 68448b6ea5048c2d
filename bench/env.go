package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is the environment a run records beside its numbers, so two
// reports can be compared knowing what they ran on. CalibrationMs is
// the median time of a fixed CPU loop: it shows box drift between
// runs and is never used to rescale a metric.
type env struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	CPUModel      string  `json:"cpu_model"`
	GoVersion     string  `json:"go_version"`
	Kernel        string  `json:"kernel"`
	Commit        string  `json:"commit"`
	SourceSHA256  string  `json:"source_sha256"`
	Seed          uint64  `json:"seed"`
	CalibrationMs float64 `json:"calibration_ms"`
}

func environment(seed uint64) env {
	return env{
		NProc:         runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		CPUModel:      cpuModel(),
		GoVersion:     runtime.Version(),
		Kernel:        kernel(),
		Commit:        gitCommit("."),
		SourceSHA256:  sourceHash("."),
		Seed:          seed,
		CalibrationMs: calibrate(),
	}
}

// calibrationSink keeps the calibration loop's result live.
var calibrationSink float32

// calibrate times a fixed floating-point loop (the shape of the
// distance kernel: 64-wide dot products) five times and returns the
// median in milliseconds.
func calibrate() float64 {
	a := make([]float32, 64)
	b := make([]float32, 64)
	for i := range a {
		a[i] = float32(i%7) * 0.25
		b[i] = float32(i%5) * 0.5
	}
	times := make([]float64, 5)
	for r := range times {
		t := time.Now()
		for i := 0; i < 400_000; i++ {
			var s float32
			for j := range a {
				s += a[j] * b[j]
			}
			calibrationSink += s
			a[i&63] += 1e-7
		}
		times[r] = float64(time.Since(t)) / float64(time.Millisecond)
	}
	sort.Float64s(times)
	return times[len(times)/2]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// gitCommit reads HEAD without running git; a checkout that is not a
// git repository reports "unknown" (SourceSHA256 still identifies the
// code).
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if id, name, ok := strings.Cut(line, " "); ok && name == ref {
			return id
		}
	}
	return "unknown"
}

// sourceHash hashes every Go source and module file under root (build
// output and VCS metadata excluded), in path order.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		io.WriteString(h, p+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}
