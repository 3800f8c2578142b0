package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"strconv"
	"strings"
)

// cpuBuckets are the packages a CPU sample's leaf frame is charged to;
// everything else is charged to "other".
var cpuBuckets = []string{
	"stats", "dsp", "channel", "modem", "radio", "shieldcore",
	"securelink", "wire", "shieldd", "syscall", "runtime", "other",
}

// profiler writes a CPU profile of the traced run to a file in the work
// directory.
type profiler struct{ f *os.File }

func startProfile(dir string) (*profiler, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f, err := os.CreateTemp(dir, "cpu-*.pprof")
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &profiler{f: f}, nil
}

// stop ends the profile, reads it with the toolchain's pprof, deletes it,
// and returns each bucket's share of CPU self time in percent.
func (p *profiler) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	defer os.Remove(p.f.Name())
	if err := p.f.Close(); err != nil {
		return nil, err
	}
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-unit=ms", p.f.Name()).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	rows, err := parseTop(string(out))
	if err != nil {
		return nil, err
	}
	return cpuShares(rows), nil
}

// profRow is one function's flat (self) CPU time from pprof -top.
type profRow struct {
	fn     string
	flatMS float64
}

// parseTop reads the function rows of `pprof -top -unit=ms` output.
func parseTop(text string) ([]profRow, error) {
	var rows []profRow
	header := false
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if !header {
			header = len(f) > 1 && f[0] == "flat" && f[1] == "flat%"
			continue
		}
		if len(f) < 6 {
			continue
		}
		flat, err := strconv.ParseFloat(strings.TrimSuffix(f[0], "ms"), 64)
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		rows = append(rows, profRow{fn: fn, flatMS: flat})
	}
	if !header {
		return nil, fmt.Errorf("pprof output has no -top table")
	}
	return rows, nil
}

// cpuShares charges each row's self time to its leaf package's bucket and
// returns the buckets' shares in percent of the total.
func cpuShares(rows []profRow) map[string]float64 {
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		shares[b] = 0
	}
	var total float64
	for _, r := range rows {
		shares[bucket(leafPackage(r.fn))] += r.flatMS
		total += r.flatMS
	}
	if total > 0 {
		for b := range shares {
			shares[b] *= 100 / total
		}
	}
	return shares
}

// leafPackage returns the import path of a pprof function name such as
// "heartshield/internal/dsp.(*Plan).Forward" or "runtime.mallocgc".
func leafPackage(fn string) string {
	// Type arguments can contain dots and slashes; drop them first.
	var b strings.Builder
	depth := 0
	for _, r := range fn {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	name := b.String()
	slash := strings.LastIndex(name, "/")
	if dot := strings.Index(name[slash+1:], "."); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

// bucket maps an import path to its CPU bucket.
func bucket(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, "heartshield/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		for _, b := range cpuBuckets {
			if top == b {
				return b
			}
		}
		return "other"
	}
	switch {
	case pkg == "syscall", strings.HasPrefix(pkg, "internal/syscall/"),
		pkg == "internal/runtime/syscall", pkg == "runtime/internal/syscall":
		return "syscall"
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return "other"
}
