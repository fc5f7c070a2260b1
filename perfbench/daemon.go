package main

import (
	"bufio"
	"bytes"
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

// daemon is one murphyd child process serving on loopback.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
	log    *os.File
}

// startDaemon boots murphyd with args on a free loopback port and returns
// once /readyz answers 200.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no murphyd binary given (-murphyd)")
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-listen", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed mid-run must not leave its daemon behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start murphyd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{}), log: logf}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, fmt.Errorf("murphyd exited before ready: %v (log %s)", d.err, logPath)
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, errors.New("murphyd not ready after 60s")
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

// peakRSSMB reads the daemon's peak resident set (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	return vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
}

// vmHWM parses the VmHWM line of a /proc status file, in MB.
func vmHWM(path string) (float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing it
// if the drain takes longer than 30 s.
func (d *daemon) stop() error {
	defer d.log.Close()
	select {
	case <-d.exited:
		return fmt.Errorf("murphyd exited early: %v", d.err)
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
		return d.err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("murphyd did not drain within 30s; killed")
	}
}

// conn is one client connection to the daemon: a transport limited to a
// single TCP connection, so a load generator's connection count is explicit.
type conn struct {
	base   string
	client *http.Client
}

func newConn(base string) *conn {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &conn{base: base, client: &http.Client{Transport: tr, Timeout: 120 * time.Second}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// response is one HTTP exchange: status, body, and the time from sending the
// request to having read the whole body.
type response struct {
	status  int
	body    []byte
	elapsed time.Duration
}

// do sends one request; body, when non-nil, is sent as JSON. The latency
// excludes encoding the request body.
func (c *conn) do(method, path string, body any) (*response, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	return &response{status: resp.StatusCode, body: b, elapsed: time.Since(start)}, nil
}

// decodeStrict decodes one JSON value, rejecting unknown fields and trailing
// data.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// shed reports whether an answer is an overload shed.
func shed(status int) bool {
	return status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable
}
