package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"alpacomm/internal/service"
)

// serverProc is one planserver process started with default flags; only
// the listen address is chosen, on a free loopback port.
type serverProc struct {
	cmd  *exec.Cmd
	addr string
	// done is closed when the process has exited; err is its exit status.
	done chan struct{}
	err  error
}

// startServer launches the binary and waits until /v2/stats answers.
func startServer(bin string) (*serverProc, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		port, err := freePort()
		if err != nil {
			return nil, err
		}
		addr := "127.0.0.1:" + strconv.Itoa(port)
		cmd := exec.Command(bin, "-addr", addr)
		cmd.Env = serverEnv()
		// The server's banner must not reach the benchmark's stdout, whose
		// last line is the result; a dying benchmark takes the server down.
		cmd.Stdout, cmd.Stderr = nil, nil
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Start(); err != nil {
			return nil, err
		}
		p := &serverProc{cmd: cmd, addr: addr, done: make(chan struct{})}
		go func() {
			p.err = cmd.Wait()
			close(p.done)
		}()
		if lastErr = p.waitReady(10 * time.Second); lastErr == nil {
			return p, nil
		}
		p.stop()
	}
	return nil, fmt.Errorf("planserver did not become ready: %v", lastErr)
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

// waitReady polls /v2/stats until it answers 200, the process exits, or
// the timeout passes.
func (p *serverProc) waitReady(timeout time.Duration) error {
	c := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("planserver exited: %v", p.err)
		default:
		}
		resp, err := c.Get("http://" + p.addr + "/v2/stats")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				c.CloseIdleConnections()
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("no answer on %s within %v", p.addr, timeout)
}

// stop sends SIGTERM, waits for the graceful exit, and kills the process
// if it has not ended within five seconds. Stopping twice is harmless.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
}

// stats fetches /v2/stats.
func (p *serverProc) stats(c *http.Client) (*service.StatsResponse, error) {
	resp, err := c.Get("http://" + p.addr + "/v2/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st service.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// cpuSeconds reads the process's user+system CPU time from /proc.
func (p *serverProc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat times")
	}
	return (ut + st) / clkTck, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// clkTck is the kernel's clock-tick rate, the unit of /proc CPU times.
var clkTck = clockTicks()

// clockTicks returns the kernel's clock-tick rate from the auxiliary
// vector (AT_CLKTCK), 100 when it cannot be read.
func clockTicks() float64 {
	data, err := os.ReadFile("/proc/self/auxv")
	if err == nil {
		for i := 0; i+16 <= len(data); i += 16 {
			if binary.LittleEndian.Uint64(data[i:]) == 17 {
				if v := binary.LittleEndian.Uint64(data[i+8:]); v > 0 {
					return float64(v)
				}
			}
		}
	}
	return 100
}

// serverEnv is the benchmark's environment without the Go runtime knobs
// that would change the server's defaults.
func serverEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") && !strings.HasPrefix(kv, "GOGC=") && !strings.HasPrefix(kv, "GOMEMLIMIT=") {
			env = append(env, kv)
		}
	}
	return env
}
