package main

import (
	"bufio"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// stamp records where a result was measured. -compare refuses to set
// two groups of runs side by side when their stamps differ: numbers
// from another machine or toolchain are not a before/after.
type stamp struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	// JournalFS is the filesystem under the output directory, where
	// svc-journal keeps its journal: its fsync cost is part of that
	// workload's numbers.
	JournalFS string `json:"journal_fs"`
}

func newStamp(outDir string) stamp {
	s := stamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		JournalFS:  filesystemOf(outDir),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	return s
}

// sameMachine reports whether two results may be compared; the commit
// is what a comparison is about, so it is left out.
func (s stamp) sameMachine(o stamp) bool {
	s.Commit, o.Commit = "", ""
	return s == o
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, val, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// filesystemOf returns the type of the mount holding dir, from
// /proc/mounts (longest mount-point prefix wins).
func filesystemOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	f, err := os.Open("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	best, fs := "", "unknown"
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 {
			continue
		}
		mp := fields[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, fields[2]
		}
	}
	return fs
}
