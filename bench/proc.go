package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
// Each workload runs in its own process, so the peak is that
// workload's alone. Zero where /proc is not available.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// cpuTime is user+system CPU consumed by this process so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procMark is a point-in-time reading of the process counters the
// per-layer table reports as deltas.
type procMark struct {
	wall    time.Time
	cpu     time.Duration
	mallocs uint64
	allocB  uint64
	gcPause uint64
}

func markProc() procMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procMark{wall: time.Now(), cpu: cpuTime(), mallocs: m.Mallocs, allocB: m.TotalAlloc, gcPause: m.PauseTotalNs}
}

// procDelta is what the process spent between two marks.
type procDelta struct {
	wall, cpu time.Duration
	mallocs   uint64
	allocMB   float64
	gcPauseMs float64
	// cpuUtil is CPU time over wall × nproc: 1 means every core busy.
	cpuUtil float64
}

func (a procMark) until(b procMark) procDelta {
	d := procDelta{
		wall:      b.wall.Sub(a.wall),
		cpu:       b.cpu - a.cpu,
		mallocs:   b.mallocs - a.mallocs,
		allocMB:   float64(b.allocB-a.allocB) / (1 << 20),
		gcPauseMs: float64(b.gcPause-a.gcPause) / 1e6,
	}
	if d.wall > 0 {
		d.cpuUtil = float64(d.cpu) / (float64(d.wall) * float64(runtime.NumCPU()))
	}
	return d
}

func heapInuseMB() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}
