package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// machineInfo is recorded with every result set, so each figure names the
// machine and the code it was measured on.
type machineInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	MemTotalMB int64  `json:"mem_total_mb"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	// SourceDigest is the SHA-256 over the module's Go sources and go.mod,
	// which identifies the measured code when the checkout carries no git
	// metadata.
	SourceDigest string `json:"source_digest"`
}

func (m machineInfo) String() string {
	return fmt.Sprintf("nproc=%d gomaxprocs=%d cpu=%q mem=%dMiB go=%s commit=%s source=%s",
		m.NumCPU, m.GOMAXPROCS, m.CPUModel, m.MemTotalMB, m.GoVersion, m.Commit, m.SourceDigest)
}

// machine describes the host and the code under test. The repository root is
// the parent of the benchmark directory when run through run.sh, which runs
// from the root.
func machine() machineInfo {
	m := machineInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if f, err := os.Open("/proc/meminfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			var kb int64
			if _, err := fmt.Sscanf(sc.Text(), "MemTotal: %d kB", &kb); err == nil {
				m.MemTotalMB = kb / 1024
				break
			}
		}
		f.Close()
	}
	root := repoRoot()
	m.Commit = gitCommit(root)
	m.SourceDigest = sourceDigest(root)
	return m
}

// repoRoot finds the directory holding the program's go.mod: the working
// directory when run from the repository root, its parent when run from the
// benchmark directory (as go test does).
func repoRoot() string {
	for _, dir := range []string{".", ".."} {
		if data, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(data), "module mdbgp\n") {
			return dir
		}
	}
	return "."
}

// gitCommit reads HEAD without running git; "unknown" outside a git
// checkout.
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}

func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is the process's peak resident set size so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// derive maps (workload seed, purpose, index) to an independent positive
// seed, so every input of a run follows from the one workload seed.
func derive(seed int64, purpose string, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i)*0xbf58476d1ce4e5b9
	for _, c := range []byte(purpose) {
		x = (x ^ uint64(c)) * 0x100000001b3
	}
	x ^= x >> 31
	x *= 0x94d049bb133111eb
	x ^= x >> 29
	return int64(x>>33) + 1 // in [1, 2^31]
}
