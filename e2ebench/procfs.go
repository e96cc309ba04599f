package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Host and process counters read from /proc. The parse functions take the
// file contents so they can be tested without a live process.

// hostCPU is the first line of /proc/stat: cumulative clock ticks across
// all CPUs in total, running guest work (user, nice, system, irq,
// softirq), and stolen by the hypervisor while a vCPU was runnable.
type hostCPU struct {
	Total uint64
	Busy  uint64
	Steal uint64
}

// parseHostCPU reads the aggregate "cpu" line of /proc/stat.
func parseHostCPU(stat string) (hostCPU, error) {
	for _, line := range strings.Split(stat, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 || fields[0] != "cpu" {
			continue
		}
		var h hostCPU
		for i, f := range fields[1:] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return hostCPU{}, fmt.Errorf("/proc/stat cpu field %d: %w", i+1, err)
			}
			// guest and guest_nice (fields 9 and 10) are already counted in
			// user and nice.
			if i < 8 {
				h.Total += v
			}
			switch i {
			case 0, 1, 2, 5, 6:
				h.Busy += v
			case 7:
				h.Steal = v
			}
		}
		return h, nil
	}
	return hostCPU{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
}

func readHostCPU() (hostCPU, error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return hostCPU{}, err
	}
	return parseHostCPU(string(b))
}

// maxSteal caps the steal share a wall time is corrected by, so a window
// the hypervisor took almost entirely cannot blow a figure up.
const maxSteal = 0.9

// stealShare is the share of runnable vCPU time the hypervisor stole
// between two readings: Δsteal ÷ (Δbusy + Δsteal). An idle vCPU accrues no
// steal, so this is the slowdown the guest's runnable work saw.
func stealShare(before, after hostCPU) float64 {
	busy, steal := after.Busy-before.Busy, after.Steal-before.Steal
	if busy+steal == 0 {
		return 0
	}
	return math.Min(maxSteal, float64(steal)/float64(busy+steal))
}

// stopwatch times an interval both as wall time and as the steal share
// over it.
type stopwatch struct {
	start time.Time
	host  hostCPU
}

func startWatch() (stopwatch, error) {
	h, err := readHostCPU()
	return stopwatch{time.Now(), h}, err
}

// read returns the wall time since the start and the share of runnable
// vCPU time stolen over it.
func (s stopwatch) read() (wall time.Duration, steal float64, err error) {
	wall = time.Since(s.start)
	h, err := readHostCPU()
	return wall, stealShare(s.host, h), err
}

// stealPct is the share of host CPU time stolen between two readings.
func stealPct(before, after hostCPU) float64 {
	total := after.Total - before.Total
	if total == 0 {
		return 0
	}
	return 100 * float64(after.Steal-before.Steal) / float64(total)
}

// schedTotals is a process's scheduler accounting summed over its threads:
// time on CPU and time runnable but waiting on a run queue.
type schedTotals struct {
	CPU  time.Duration
	Wait time.Duration
}

// parseSchedstat reads one /proc/<pid>/task/<tid>/schedstat line:
// "<ns on cpu> <ns waiting on a runqueue> <timeslices>".
func parseSchedstat(s string) (schedTotals, error) {
	fields := strings.Fields(s)
	if len(fields) < 2 {
		return schedTotals{}, fmt.Errorf("schedstat %q: want 3 fields", s)
	}
	run, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return schedTotals{}, fmt.Errorf("schedstat run time: %w", err)
	}
	wait, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return schedTotals{}, fmt.Errorf("schedstat wait time: %w", err)
	}
	return schedTotals{CPU: time.Duration(run), Wait: time.Duration(wait)}, nil
}

// readSchedTotals sums schedstat over every live thread of pid. Go runtime
// threads are not retired while the process runs, so the sum is monotonic.
func readSchedTotals(pid int) (schedTotals, error) {
	paths, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil {
		return schedTotals{}, err
	}
	if len(paths) == 0 {
		return schedTotals{}, fmt.Errorf("no threads of pid %d in /proc", pid)
	}
	var sum schedTotals
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			// A thread can exit between the glob and the read.
			continue
		}
		t, err := parseSchedstat(string(b))
		if err != nil {
			return schedTotals{}, err
		}
		sum.CPU += t.CPU
		sum.Wait += t.Wait
	}
	return sum, nil
}

// parseStatCPU returns utime+stime (in clock ticks) from a /proc/<pid>/stat
// line. The command name is parenthesized and may hold spaces, so fields
// are counted from the last ')'.
func parseStatCPU(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc stat: no command name")
	}
	fields := strings.Fields(stat[i+1:])
	// fields[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("/proc stat: %d fields after the command name", len(fields))
	}
	utime, err := strconv.ParseUint(fields[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(fields[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("/proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// clockTicks is USER_HZ, fixed at 100 by the Linux user ABI.
const clockTicks = 100

// readProcCPU is pid's user+system CPU from /proc/<pid>/stat, which also
// counts threads that have exited; 10 ms resolution.
func readProcCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	ticks, err := parseStatCPU(string(b))
	if err != nil {
		return 0, err
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// parseVmHWM returns the peak resident set size in bytes from
// /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) != 2 || fields[1] != "kB" {
			return 0, fmt.Errorf("VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb * 1024, nil
	}
	return 0, fmt.Errorf("no VmHWM in status")
}

func readVmHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
