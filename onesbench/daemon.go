package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one onesd child process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	stderr syncBuffer
	exited chan struct{}
	err    error // the process's exit status, valid once exited is closed
}

// startDaemon launches bin on a free loopback port with the given extra
// flags and waits until GET /readyz answers 200.
func startDaemon(bin string, args ...string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	// -max-runs keeps the run table, and so the daemon's memory, bounded
	// however many requests a run makes.
	d.cmd = exec.Command(bin, append([]string{"-addr", addr, "-max-runs", "64"}, args...)...)
	d.cmd.Stderr = &d.stderr
	// Take the daemon down with the benchmark if the benchmark dies.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start onesd: %w", err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second, Transport: &http.Transport{}}
	defer probe.CloseIdleConnections()
	deadline := time.Now().Add(20 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("onesd exited before ready: %v: %s", d.err, d.stderr.String())
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("onesd not ready after 20s")
		}
	}
}

// stop shuts the daemon down with SIGTERM, killing it if it has not
// exited within ten seconds, and waits for it.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is caught below
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// cpu returns the daemon's user+system CPU time so far.
func (d *daemon) cpu() (time.Duration, error) {
	f, err := d.stat()
	if err != nil {
		return 0, err
	}
	// Fields after the command name: state is f[0], utime f[11], stime f[12].
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// rssMB returns the daemon's resident set size in MB.
func (d *daemon) rssMB() (float64, error) {
	f, err := d.stat()
	if err != nil {
		return 0, err
	}
	pages, err := strconv.ParseInt(f[21], 10, 64)
	if err != nil {
		return 0, err
	}
	return float64(pages*int64(os.Getpagesize())) / 1e6, nil
}

// stat returns the fields of /proc/<pid>/stat after the command name.
func (d *daemon) stat() ([]string, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	s := string(data)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return nil, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 22 {
		return nil, errors.New("short /proc stat")
	}
	return f, nil
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// syncBuffer is a bytes.Buffer the child's stderr copier and the
// benchmark may use at once.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}
