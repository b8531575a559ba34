package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// hostStamp is written on every output: a host-speed figure means nothing
// without the CPU count and load it was taken under.
type hostStamp struct {
	NProc        int    `json:"nproc"`
	GOMAXPROCS   int    `json:"gomaxprocs"`
	GoVersion    string `json:"go_version"`
	CPUModel     string `json:"cpu_model"`
	LoadavgStart string `json:"loadavg_start"`
	LoadavgEnd   string `json:"loadavg_end,omitempty"`
	Commit       string `json:"git_commit"`
}

func newHostStamp(root string) hostStamp {
	return hostStamp{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		CPUModel:     cpuModel(),
		LoadavgStart: loadavg(),
		Commit:       gitCommit(root),
	}
}

func (h hostStamp) String() string {
	return fmt.Sprintf("host: nproc=%d GOMAXPROCS=%d %s cpu=%q loadavg_start=%q loadavg_end=%q commit=%s",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel, h.LoadavgStart, h.LoadavgEnd, h.Commit)
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

func loadavg() string {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(b))
}

// gitCommit names the commit under test. A benchmark checkout is often not a
// git repository (the driver exports the tree), so "unknown" is a normal
// answer, not an error.
func gitCommit(root string) string {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, "git", "-C", root, "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// procStatusMB reads one "<key>: <n> kB" line of /proc/self/status in MB;
// VmHWM is the peak resident set.
func procStatusMB(key string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && k == key {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse %s: %w", key, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("%s not in /proc/self/status", key)
}

// sinceProcessStart is the wall time since the kernel created this process,
// so runtime and package initialisation count toward set-up. The kernel
// reports the start in clock ticks since boot (USER_HZ, 100 on Linux), so the
// start is known to 10 ms; "now" is read from the same boot-time clock at
// full resolution.
func sinceProcessStart() (time.Duration, error) {
	stat, err := os.ReadFile("/proc/self/stat")
	if err != nil {
		return 0, err
	}
	// Field 22 (starttime) counts from after the parenthesised command name,
	// which may itself contain spaces.
	fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(fields) < 20 {
		return 0, fmt.Errorf("short /proc/self/stat")
	}
	startTicks, err := strconv.ParseInt(fields[19], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parse starttime: %w", err)
	}
	const clockBoottime = 7 // CLOCK_BOOTTIME, the clock starttime counts in
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockBoottime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("clock_gettime(CLOCK_BOOTTIME): %w", errno)
	}
	return time.Duration(ts.Nano()) - time.Duration(startTicks)*(time.Second/100), nil
}

// findRoot walks up from the working directory to the checkout root, marked
// by BENCHMARK.json, so the door works both as `bash bench/run.sh` (cwd =
// root) and as `go run .` inside bench/.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for i := 0; i < 3; i++ {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		dir = filepath.Dir(dir)
	}
	return "", fmt.Errorf("BENCHMARK.json not found in the working directory or its parents")
}
