package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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

// server is one quantiled child process on a loopback port.
type server struct {
	cmd    *exec.Cmd
	base   string
	log    *logTail
	exited chan struct{}
	// execAt is taken just before exec; readyS is exec → first 200 from
	// /stats.
	execAt time.Time
	readyS float64
}

// serverOpts says how to launch quantiled. prefix, when set, is a command
// the server is run under (the sensitivity runs use it to pin the server
// to one CPU).
type serverOpts struct {
	bin    string
	prefix []string
}

// logTail keeps the last logTailBytes of the server's output for error
// reports. The output goes through a pipe rather than a file, so the
// coordinator's log line per shipment costs the server what a terminal or
// log collector would, and the benchmark measures no disk.
type logTail struct {
	mu  sync.Mutex
	buf []byte
}

const logTailBytes = 2 << 10

func (l *logTail) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf = append(l.buf, p...)
	if len(l.buf) > logTailBytes {
		l.buf = append(l.buf[:0], l.buf[len(l.buf)-logTailBytes:]...)
	}
	return len(p), nil
}

func (l *logTail) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.TrimSpace(string(l.buf))
}

// freePort asks the kernel for an unused loopback port. The port is
// released before quantiled binds it; nothing else on the box races for
// loopback ports during a run.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startServer execs quantiled with args and waits until GET /stats answers
// 200, polling on c.
func startServer(o serverOpts, args []string, c *http.Client) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	argv := append(append(append([]string{}, o.prefix...), o.bin, "-addr", addr), args...)
	cmd := exec.Command(argv[0], argv[1:]...)
	log := &logTail{}
	cmd.Stdout, cmd.Stderr = log, log
	// If the generator dies without stopping the server (killed from
	// outside), the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, base: "http://" + addr, log: log, exited: make(chan struct{})}
	s.execAt = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", o.bin, err)
	}
	go func() {
		_ = cmd.Wait() // the exit status is reported through the log on failure
		close(s.exited)
	}()
	deadline := s.execAt.Add(30 * time.Second)
	for {
		select {
		case <-s.exited:
			return nil, fmt.Errorf("quantiled exited during start-up; log: %s", log)
		default:
		}
		if resp, err := c.Get(s.base + "/stats"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.readyS = time.Since(s.execAt).Seconds()
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, fmt.Errorf("quantiled not ready after 30s; log: %s", log)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// pid is the launched child's PID: the server itself, or the prefix
// command that execs it (taskset execs in place, keeping the PID).
func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM, waits for the graceful drain, and kills the process
// if it has not exited after ten seconds. It returns once the child has
// been reaped.
func (s *server) stop() {
	select {
	case <-s.exited:
	default:
		_ = s.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-s.exited:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	}
}

// alive reports whether the child is still running.
func (s *server) alive() bool {
	select {
	case <-s.exited:
		return false
	default:
		return true
	}
}

// peakRSSMiB reads the child's VmHWM from /proc/<pid>/status.
func peakRSSMiB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(raw)
}

func parseVmHWM(status []byte) (float64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := strings.Fields(string(rest))
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds reads the child's user+system CPU time from /proc/<pid>/stat.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}
