package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildDaemons builds rallocd and rallocproxy from the repository at
// root into dir. It runs once per serve run, before set-up is timed.
func buildDaemons(ctx context.Context, root, dir string) error {
	cmd := exec.CommandContext(ctx, "go", "build", "-o", dir+string(filepath.Separator), "./cmd/rallocd", "./cmd/rallocproxy")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building the daemons: %v\n%s", err, out)
	}
	return nil
}

// proc is a daemon the harness started and must stop.
type proc struct {
	cmd  *exec.Cmd
	url  string // base URL, http://host:port
	log  string // file holding its stderr
	done chan error
}

// startProc starts a daemon on an ephemeral port, with its log and
// address file in dir, and waits until it answers /readyz with 200.
func startProc(bin, dir string, args ...string) (*proc, error) {
	f, err := os.CreateTemp(dir, filepath.Base(bin)+"-*.log")
	if err != nil {
		return nil, err
	}
	defer f.Close()
	addrFile := strings.TrimSuffix(f.Name(), ".log") + ".addr"
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)...)
	cmd.Stdout, cmd.Stderr = f, f
	// Should the harness die without stopping it, the daemon dies too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, log: f.Name(), done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	if err := p.waitReady(addrFile, 20*time.Second); err != nil {
		p.stop()
		return nil, fmt.Errorf("%s: %w\n%s", filepath.Base(bin), err, p.logTail())
	}
	return p, nil
}

// waitReady waits for the address file, then for /readyz to answer 200.
func (p *proc) waitReady(addrFile string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for ; time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		select {
		case err := <-p.done:
			p.done <- err
			return fmt.Errorf("exited during start-up: %v", err)
		default:
		}
		if p.url == "" {
			blob, err := os.ReadFile(addrFile)
			if err != nil || !strings.HasSuffix(string(blob), "\n") {
				continue
			}
			p.url = "http://" + strings.TrimSpace(string(blob))
		}
		resp, err := http.Get(p.url + "/readyz")
		if err != nil {
			continue
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return nil
		}
	}
	return fmt.Errorf("not ready after %v", limit)
}

// stop sends SIGTERM, waits for the daemon to drain and exit, and kills
// it if it has not exited within ten seconds.
func (p *proc) stop() error {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-p.done:
		return err
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("killed after a 10s drain")
	}
}

// logTail returns the end of the daemon's log, for error messages.
func (p *proc) logTail() string {
	blob, _ := os.ReadFile(p.log)
	if len(blob) > 2000 {
		blob = blob[len(blob)-2000:]
	}
	return string(blob)
}

// pid is the daemon's process ID.
func (p *proc) pid() int { return p.cmd.Process.Pid }

// scrape reads the daemon's /metrics: flat "name value" lines.
func (p *proc) scrape() (map[string]int64, error) {
	resp, err := http.Get(p.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]int64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			continue
		}
		if n, err := strconv.ParseInt(val, 10, 64); err == nil {
			out[name] = n
		}
	}
	return out, sc.Err()
}

// metricsDelta is the change of a daemon's metrics between two scrapes.
type metricsDelta struct{ before, after map[string]int64 }

func (d metricsDelta) get(name string) float64 { return float64(d.after[name] - d.before[name]) }

// meanUS is a histogram's mean over the window in µs, from the change
// of its nanosecond sum and its count.
func (d metricsDelta) meanUS(hist string) float64 {
	return ratio(d.get(hist+".sum"), d.get(hist+".count")) / 1e3
}
