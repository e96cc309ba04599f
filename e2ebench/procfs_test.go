package main

import (
	"math"
	"os"
	"testing"
	"time"
)

func TestParseHostCPUAndSteal(t *testing.T) {
	// user nice system idle iowait irq softirq steal guest guest_nice
	before, err := parseHostCPU("cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 50 0 25 400 5 0 2 18 0 0\nintr 1 2\n")
	if err != nil {
		t.Fatal(err)
	}
	if before.Total != 1000 || before.Busy != 155 || before.Steal != 35 {
		t.Fatalf("parseHostCPU = %+v, want total 1000 (guest excluded), busy 155, steal 35", before)
	}
	after := hostCPU{Total: 1200, Steal: 45}
	if got := stealPct(before, after); got != 5 {
		t.Fatalf("stealPct = %v, want 5", got)
	}
	if got := stealPct(after, after); got != 0 {
		t.Fatalf("stealPct over no time = %v", got)
	}
	if _, err := parseHostCPU("cpu0 1 2 3\n"); err == nil {
		t.Fatal("missing aggregate line accepted")
	}
	if _, err := parseHostCPU("cpu 1 x 3\n"); err == nil {
		t.Fatal("non-numeric field accepted")
	}
}

func TestStealShare(t *testing.T) {
	a := hostCPU{Total: 1000, Busy: 300, Steal: 50}
	for _, c := range []struct {
		after hostCPU
		want  float64
	}{
		{hostCPU{Total: 1200, Busy: 360, Steal: 70}, 0.25}, // 20 of 60+20 runnable ticks
		{hostCPU{Total: 1100, Busy: 300, Steal: 50}, 0},    // idle: nothing runnable
		{hostCPU{Total: 1300, Busy: 301, Steal: 149}, maxSteal},
	} {
		if got := stealShare(a, c.after); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("stealShare(%+v) = %v, want %v", c.after, got, c.want)
		}
	}
}

// TestRunnableTimeScaling checks the per-window steal attribution and the
// latency scaling built on it.
func TestRunnableTimeScaling(t *testing.T) {
	p := &phaseStats{elapsed: 2500 * time.Millisecond}
	// Window 0 runs unstolen, window 1 loses half its runnable time, the
	// partial window 2 a quarter.
	for _, s := range []struct {
		ms           int
		busy, stolen uint64
	}{{0, 0, 0}, {1000, 100, 0}, {2000, 150, 50}, {2500, 180, 60}} {
		p.host = append(p.host, hostSample{time.Duration(s.ms) * time.Millisecond, hostCPU{Busy: s.busy, Steal: s.stolen}})
	}
	got := p.windowSteal()
	want := []float64{0, 0.5, 0.25}
	if len(got) != len(want) {
		t.Fatalf("windowSteal = %v, want %v", got, want)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("windowSteal = %v, want %v", got, want)
		}
	}
	p.lat = []float64{1, 2, 4}
	p.ends = []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond, 2500 * time.Millisecond}
	if free := p.stealFree(); free[0] != 1 || free[1] != 1 || free[2] != 3 {
		t.Fatalf("stealFree = %v, want [1 1 3]", free)
	}
}

func TestParseSchedstat(t *testing.T) {
	got, err := parseSchedstat("1234567890 5000000 42\n")
	if err != nil {
		t.Fatal(err)
	}
	if got.CPU != 1234567890*time.Nanosecond || got.Wait != 5*time.Millisecond {
		t.Fatalf("parseSchedstat = %+v", got)
	}
	for _, bad := range []string{"", "12", "a 1 2", "1 b 2"} {
		if _, err := parseSchedstat(bad); err == nil {
			t.Errorf("parseSchedstat(%q) accepted", bad)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a ')' must not shift the fields:
	// utime (field 14) = 250, stime (field 15) = 50.
	stat := "4242 (we ird) name) S 1 4242 4242 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 8 0 12345 1000000 500"
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if got != 300 {
		t.Fatalf("parseStatCPU = %d ticks, want 300", got)
	}
	if _, err := parseStatCPU("4242 (x) S 1 2"); err == nil {
		t.Fatal("short stat accepted")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\temapsd\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if got != 51200*1024 {
		t.Fatalf("parseVmHWM = %d", got)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Fatal("missing VmHWM accepted")
	}
}

// TestLiveProc reads this process's own counters through the same paths
// the harness reads the daemon's.
func TestLiveProc(t *testing.T) {
	if _, err := os.Stat("/proc/self/stat"); err != nil {
		t.Skip("no /proc")
	}
	pid := os.Getpid()
	deadline := time.Now().Add(20 * time.Millisecond)
	for time.Now().Before(deadline) {
	}
	s, err := readSchedTotals(pid)
	if err != nil {
		t.Fatal(err)
	}
	if s.CPU <= 0 {
		t.Fatalf("schedstat CPU = %v after a busy loop", s.CPU)
	}
	if _, err := readProcCPU(pid); err != nil {
		t.Fatal(err)
	}
	if hwm, err := readVmHWM(pid); err != nil || hwm <= 0 {
		t.Fatalf("VmHWM = %d, %v", hwm, err)
	}
	if _, err := readHostCPU(); err != nil {
		t.Fatal(err)
	}
}
