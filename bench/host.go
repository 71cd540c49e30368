package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// host describes the machine a run measured, printed with every result so
// figures from different hosts are never compared silently.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
	Kernels    string `json:"kernels"`
	GoVersion  string `json:"go"`
}

func probeHost() host {
	h := host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		L2:         "unknown",
		L3:         "unknown",
	}
	flags := map[string]bool{}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			k, v, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			switch strings.TrimSpace(k) {
			case "model name":
				h.CPU = strings.TrimSpace(v)
			case "flags":
				for _, f := range strings.Fields(v) {
					flags[f] = true
				}
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level, _ := os.ReadFile(filepath.Join(d, "level"))
		size, _ := os.ReadFile(filepath.Join(d, "size"))
		switch strings.TrimSpace(string(level)) {
		case "2":
			h.L2 = strings.TrimSpace(string(size))
		case "3":
			h.L3 = strings.TrimSpace(string(size))
		}
	}
	// internal/linalg dispatches to its AVX2+FMA assembly on amd64 builds
	// without the purego tag when the CPU has both extensions; otherwise
	// the portable Go kernels run.
	switch {
	case puregoBuild || runtime.GOARCH != "amd64":
		h.Kernels = "purego"
	case flags["avx2"] && flags["fma"]:
		h.Kernels = "fma-asm"
	default:
		h.Kernels = "purego (no avx2+fma)"
	}
	return h
}
