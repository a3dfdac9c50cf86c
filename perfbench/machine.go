package main

import (
	"bufio"
	"os"
	"runtime"
	"strings"
)

// machineInfo is the machine block every report carries.
type machineInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GitRev     string `json:"git_rev"`
	OSArch     string `json:"os_arch"`
}

func machine() machineInfo {
	return machineInfo{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GitRev:     gitRev(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" line of /proc/cpuinfo.
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

// gitRev is the revision perfbench/run.sh found for the checkout.
func gitRev() string {
	if rev := os.Getenv("PERFBENCH_GIT_REV"); rev != "" {
		return rev
	}
	return "unknown"
}
