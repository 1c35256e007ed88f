package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running tastiserve process.
type serverProc struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
	err    error // the process's exit status, once exited is closed
	log    *os.File
}

// bootTimeout bounds how long a boot may take to report ready.
const bootTimeout = 5 * time.Minute

// launch starts tastiserve with args plus a free loopback -addr and returns
// once /readyz answers 200, with the time from process start to that answer.
// A boot that loses its port to another process is retried.
func launch(ctx context.Context, bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		s, setup, err := launchOnce(ctx, bin, args, logPath)
		if err == nil {
			return s, setup, nil
		}
		lastErr = err
		if !errors.Is(err, errExitedEarly) {
			break
		}
	}
	return nil, 0, lastErr
}

var errExitedEarly = errors.New("tastiserve exited before it was ready")

func launchOnce(ctx context.Context, bin string, args []string, logPath string) (*serverProc, time.Duration, error) {
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	log, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append(append([]string(nil), args...), "-addr", addr)...)
	cmd.Stdout, cmd.Stderr = log, log
	// The server dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, 0, fmt.Errorf("starting tastiserve: %w", err)
	}
	s := &serverProc{cmd: cmd, url: "http://" + addr, exited: make(chan struct{}), log: log}
	go func() {
		s.err = cmd.Wait()
		close(s.exited)
	}()

	client := &http.Client{Timeout: 2 * time.Second}
	deadline := time.NewTimer(bootTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-s.exited:
			log.Close()
			return nil, 0, fmt.Errorf("%w (%v); log %s", errExitedEarly, s.err, logPath)
		case <-ctx.Done():
			s.stop()
			return nil, 0, ctx.Err()
		case <-deadline.C:
			s.stop()
			return nil, 0, fmt.Errorf("tastiserve not ready within %v; log %s", bootTimeout, logPath)
		case <-tick.C:
		}
		resp, err := client.Get(s.url + "/readyz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck // draining a probe
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return s, time.Since(start), nil
		}
	}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// stop asks the server to drain and exit, kills it if it does not within
// 30 seconds, and waits until it has exited.
func (s *serverProc) stop() {
	select {
	case <-s.exited:
	default:
		s.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // exit is awaited below
		select {
		case <-s.exited:
		case <-time.After(30 * time.Second):
			s.cmd.Process.Kill() //nolint:errcheck // exit is awaited below
			<-s.exited
		}
	}
	s.log.Close()
}

// peakRSSMB returns the server's peak resident set (VmHWM) in MiB.
func (s *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// gomaxprocs returns the server's GOMAXPROCS: the GOMAXPROCS environment
// variable when the benchmark passes one on, else the Go default, the count
// of CPUs in the process's affinity mask.
func (s *serverProc) gomaxprocs() (int, error) {
	if v := os.Getenv("GOMAXPROCS"); v != "" {
		return strconv.Atoi(v)
	}
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "Cpus_allowed_list:"); ok {
			return cpuListLen(strings.TrimSpace(v))
		}
	}
	return 0, errors.New("no Cpus_allowed_list in /proc status")
}

// cpuListLen counts the CPUs in a list like "0-3,6".
func cpuListLen(list string) (int, error) {
	n := 0
	for _, part := range strings.Split(list, ",") {
		lo, hi, isRange := strings.Cut(part, "-")
		a, err := strconv.Atoi(lo)
		if err != nil {
			return 0, fmt.Errorf("parsing cpu list %q: %w", list, err)
		}
		b := a
		if isRange {
			if b, err = strconv.Atoi(hi); err != nil {
				return 0, fmt.Errorf("parsing cpu list %q: %w", list, err)
			}
		}
		n += b - a + 1
	}
	return n, nil
}

// scrape fetches the server's Prometheus text.
func (s *serverProc) scrape(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("scraping /metrics: %w", err)
	}
	return string(b), nil
}

// promValue returns the value of an unlabeled series, 0 when absent (a
// counter that has not been incremented yet is not rendered).
func promValue(text, name string) float64 {
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			if err == nil {
				return f
			}
		}
	}
	return 0
}

// promLabel returns the value of label on the first series of family, or
// "" when absent.
func promLabel(text, family, label string) string {
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, family+"{") {
			continue
		}
		_, rest, ok := strings.Cut(line, label+`="`)
		if !ok {
			continue
		}
		v, _, _ := strings.Cut(rest, `"`)
		return v
	}
	return ""
}

// indexRecords returns the record count GET /index reports.
func (s *serverProc) indexRecords(ctx context.Context) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/index", nil)
	if err != nil {
		return 0, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, fmt.Errorf("GET /index: %w", err)
	}
	defer resp.Body.Close()
	var info struct {
		Records int `json:"records"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return 0, fmt.Errorf("GET /index: %w", err)
	}
	return info.Records, nil
}

// waitRecords polls /index until the server indexes want records.
func (s *serverProc) waitRecords(ctx context.Context, want int) error {
	deadline := time.Now().Add(2 * time.Minute)
	for {
		n, err := s.indexRecords(ctx)
		if err != nil {
			return err
		}
		if n == want {
			return nil
		}
		if n > want || time.Now().After(deadline) {
			return fmt.Errorf("server indexes %d records, want %d", n, want)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
}
