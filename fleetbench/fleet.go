package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is one server process under test: smartserve or smartgw.
type proc struct {
	name    string
	cmd     *exec.Cmd
	addr    string // wire listen address
	debug   string // telemetry listen address (/metrics, /debug/vars, /debug/traces)
	done    chan struct{}
	err     error     // exit status, valid after done closes
	started time.Time // when the process was launched
}

// startProc launches a server and waits until it prints its wire listen
// address and logs its telemetry address.
func startProc(ctx context.Context, dir, name, bin string, args ...string) (*proc, error) {
	outPath := filepath.Join(dir, name+".out")
	errPath := filepath.Join(dir, name+".err")
	stdout, err := os.Create(outPath)
	if err != nil {
		return nil, err
	}
	defer stdout.Close()
	stderr, err := os.Create(errPath)
	if err != nil {
		return nil, err
	}
	defer stderr.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = stdout, stderr
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", serverProcs))
	// A server must not outlive the benchmark, even one killed outright.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{}), started: time.Now()}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for p.addr == "" || p.debug == "" {
		if out, err := os.ReadFile(outPath); err == nil {
			p.addr = scanField(out, "listening ")
		}
		if logs, err := os.ReadFile(errPath); err == nil {
			p.debug = telemetryAddr(logs)
		}
		if p.addr != "" && p.debug != "" {
			break
		}
		select {
		case <-p.done:
			logs, _ := os.ReadFile(errPath)
			return nil, fmt.Errorf("%s exited during start-up (%v): %s", name, p.err, lastLines(logs, 5))
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("%s did not report its addresses within 30s", name)
		}
	}
	return p, nil
}

// scanField returns the first whitespace-delimited word after prefix at
// the start of a line.
func scanField(out []byte, prefix string) string {
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), prefix); ok {
			if f := strings.Fields(rest); len(f) > 0 {
				return f[0]
			}
		}
	}
	return ""
}

// telemetryAddr extracts the debug server address from the JSON logs.
func telemetryAddr(logs []byte) string {
	sc := bufio.NewScanner(bytes.NewReader(logs))
	for sc.Scan() {
		var rec struct {
			Msg  string `json:"msg"`
			Addr string `json:"addr"`
		}
		if json.Unmarshal(sc.Bytes(), &rec) == nil && rec.Msg == "telemetry server listening" {
			return rec.Addr
		}
	}
	return ""
}

func lastLines(b []byte, n int) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, " | ")
}

// stop sends SIGTERM (the graceful drain), then SIGKILL after a grace
// period, and waits for the process to exit.
func (p *proc) stop() {
	select {
	case <-p.done:
		return
	default:
	}
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
	}
}

// alive reports an error if the process has exited.
func (p *proc) alive() error {
	select {
	case <-p.done:
		return fmt.Errorf("%s exited unexpectedly: %v", p.name, p.err)
	default:
		return nil
	}
}

// cpu returns the CPU time the process's threads have run so far, from
// the scheduler's per-thread nanosecond accounts (/proc/<pid>/task/*/
// schedstat); /proc/<pid>/stat's 10 ms clock ticks are too coarse for
// one-second windows.
func (p *proc) cpu() (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", p.cmd.Process.Pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum int64
	for _, t := range tasks {
		b, err := os.ReadFile(filepath.Join(dir, t.Name(), "schedstat"))
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		f := strings.Fields(string(b))
		if len(f) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s schedstat: %w", p.name, err)
		}
		sum += ns
	}
	return time.Duration(sum), nil
}

// sysCPU returns the process's kernel-mode CPU time (stime from
// /proc/<pid>/stat, in the kernel's fixed 100 Hz user-visible ticks).
func (p *proc) sysCPU() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	f := strings.Fields(s[i+1:])
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat for %s", p.name)
	}
	// stime is field 15 of the line, the 13th after the command name.
	ticks, err := strconv.ParseInt(f[12], 10, 64)
	return time.Duration(ticks) * 10 * time.Millisecond, err
}

// peakRSS returns the process's peak resident set (VmHWM) in bytes.
func (p *proc) peakRSS() (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

// get fetches one debug endpoint of the process.
func (p *proc) get(path string) ([]byte, error) {
	resp, err := httpClient.Get("http://" + p.debug + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s", p.name, path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// memstats is the subset of runtime.MemStats /debug/vars publishes that
// the ledger reads.
type memstats struct {
	Mallocs       uint64  `json:"Mallocs"`
	NumGC         uint32  `json:"NumGC"`
	PauseTotalNs  uint64  `json:"PauseTotalNs"`
	GCCPUFraction float64 `json:"GCCPUFraction"`
}

func (p *proc) memstats() (memstats, error) {
	b, err := p.get("/debug/vars")
	if err != nil {
		return memstats{}, err
	}
	var doc struct {
		Memstats memstats `json:"memstats"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return memstats{}, fmt.Errorf("%s /debug/vars: %w", p.name, err)
	}
	return doc.Memstats, nil
}

// run executes a set-up command (smartrain, smartctl) to completion and
// returns its standard output and the CPU time it used.
func run(ctx context.Context, dir, bin string, args ...string) ([]byte, time.Duration, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", serverProcs))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return out, 0, fmt.Errorf("%s %s: %v: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLines(stderr.Bytes(), 5))
	}
	return out, cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime(), nil
}
