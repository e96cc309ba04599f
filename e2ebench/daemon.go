package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// daemon is one emapsd process started by the harness.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://127.0.0.1:<port>
	exited chan struct{}
	waitMu sync.Mutex
	err    error // the process's exit status, once exited is closed
	log    *os.File
}

// live tracks every started daemon so the harness can stop them on any
// exit path, including a failed run.
var live struct {
	sync.Mutex
	set map[*daemon]bool
}

// startDaemon execs bin with flags on a free loopback port and returns once
// the process is running (not yet serving; see waitHealthy). The daemon's
// log goes to logPath. A port grabbed by another process between the probe
// and the daemon's bind shows up as an early exit, and the caller retries.
func startDaemon(bin, logPath string, gomaxprocs int, flags []string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:" + strconv.Itoa(port)}, flags...)
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logFile, logFile
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	// The kernel kills the daemon if the harness dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logFile.Close()
		return nil, fmt.Errorf("starting emapsd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://127.0.0.1:" + strconv.Itoa(port), exited: make(chan struct{}), log: logFile}
	go func() {
		err := cmd.Wait()
		d.waitMu.Lock()
		d.err = err
		d.waitMu.Unlock()
		close(d.exited)
	}()
	live.Lock()
	if live.set == nil {
		live.set = map[*daemon]bool{}
	}
	live.set[d] = true
	live.Unlock()
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// waitHealthy polls /healthz until the daemon answers, it exits, or the
// deadline passes.
func (d *daemon) waitHealthy(client *http.Client, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("emapsd exited during start-up: %v (log %s)", d.exitErr(), d.log.Name())
		default:
		}
		resp, err := client.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("emapsd not healthy after %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (d *daemon) exitErr() error {
	d.waitMu.Lock()
	defer d.waitMu.Unlock()
	return d.err
}

// stop sends SIGTERM (the daemon drains and exits), escalates to SIGKILL
// after a grace period, and returns once the process has been reaped.
func (d *daemon) stop() {
	live.Lock()
	delete(live.set, d)
	live.Unlock()
	select {
	case <-d.exited:
	default:
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-d.exited:
		case <-time.After(10 * time.Second):
			d.cmd.Process.Kill()
			<-d.exited
		}
	}
	d.log.Close()
}

// stopAll stops every daemon still running.
func stopAll() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.stop()
	}
}

// newClient returns an HTTP client over one keep-alive connection to the
// daemon.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			// Loopback: no proxy from the environment.
			Proxy: nil,
		},
		Timeout: 120 * time.Second,
	}
}

// do sends one request and reads the whole response into buf (reset
// first). It returns the response for its headers; the body is already
// drained and closed. A non-2xx status is an error carrying the daemon's
// error envelope.
func do(client *http.Client, method, url, ctype string, body []byte, reqID string, buf *bytes.Buffer) (*http.Response, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		msg := buf.String()
		if len(msg) > 300 {
			msg = msg[:300]
		}
		return resp, fmt.Errorf("HTTP %d: %s", resp.StatusCode, msg)
	}
	return resp, nil
}

// scrape fetches and parses the daemon's /metrics.
func (d *daemon) scrape(client *http.Client) (promSnapshot, error) {
	var buf bytes.Buffer
	if _, err := do(client, http.MethodGet, d.base+"/metrics", "", nil, "", &buf); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return parseProm(buf.String())
}

// procSample is the daemon's scheduler and CPU accounting plus the host's
// steal counter at one instant.
type procSample struct {
	sched schedTotals
	cpu   time.Duration // /proc/<pid>/stat utime+stime
	host  hostCPU
	self  time.Duration // harness CPU
}

func (d *daemon) sample() (procSample, error) {
	s := procSample{self: selfCPU()}
	var err error
	if s.sched, err = readSchedTotals(d.pid()); err != nil {
		return s, err
	}
	if s.cpu, err = readProcCPU(d.pid()); err != nil {
		return s, err
	}
	s.host, err = readHostCPU()
	return s, err
}
