package main

import (
	"bufio"
	"os"
	"runtime/debug"
	"strconv"
	"strings"

	"sirius/internal/sweep"
)

// hostInfo stamps a result with the machine and build it came from.
type hostInfo struct {
	*sweep.RunEnv
	CPUModel string `json:"cpu_model"`
	Commit   string `json:"commit"`
}

func captureHost() hostInfo {
	h := hostInfo{RunEnv: sweep.CaptureEnv(), CPUModel: "unknown", Commit: "unknown"}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		settings := map[string]string{}
		for _, s := range bi.Settings {
			settings[s.Key] = s.Value
		}
		if rev := settings["vcs.revision"]; rev != "" {
			h.Commit = rev
			if settings["vcs.modified"] == "true" {
				h.Commit += "-dirty"
			}
		}
	}
	return h
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB, or 0
// where /proc does not report it.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
