package main

import (
	"bufio"
	"bytes"
	"encoding/json"
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

	"pathcache"
)

// serverProc is one pcserve process started with default flags.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string
	exited  chan struct{}
	waitErr error
}

// addrWriter is pcserve's stdout: it picks the bound address out of the
// "pcserve: serving <index> on http://<addr>" line and discards the rest.
type addrWriter struct {
	line  []byte
	found chan string
	done  bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	if w.done {
		return len(p), nil
	}
	w.line = append(w.line, p...)
	if i := bytes.IndexByte(w.line, '\n'); i >= 0 {
		line := string(w.line[:i])
		if j := strings.LastIndex(line, "http://"); j >= 0 {
			w.found <- line[j+len("http://"):]
			w.done = true
		} else {
			w.line = w.line[i+1:]
		}
	}
	return len(p), nil
}

// startServer starts pcserve on index, listening on a free loopback port,
// and returns once /healthz answers ok, with the time that took.
func startServer(bin, index string) (*serverProc, time.Duration, error) {
	t0 := time.Now()
	aw := &addrWriter{found: make(chan string, 1)}
	cmd := exec.Command(bin, "-index", index, "-addr", "127.0.0.1:0")
	cmd.Stdout = aw
	cmd.Stderr = os.Stderr
	// pcserve must not outlive the benchmark, whatever ends it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting pcserve: %w", err)
	}
	s := &serverProc{cmd: cmd, exited: make(chan struct{})}
	go func() {
		s.waitErr = cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.addr = <-aw.found:
	case <-s.exited:
		return nil, 0, fmt.Errorf("pcserve exited before listening: %w", s.waitErr)
	case <-time.After(30 * time.Second):
		s.kill()
		return nil, 0, fmt.Errorf("pcserve reported no address within 30s")
	}
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := hc.Get("http://" + s.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck // drained only to reuse the connection
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(t0), nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, 0, fmt.Errorf("pcserve /healthz not ok within 30s: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop drains pcserve with SIGTERM, as an operator would, and waits for
// it to exit.
func (s *serverProc) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("signalling pcserve: %w", err)
	}
	select {
	case <-s.exited:
		if s.waitErr != nil {
			return fmt.Errorf("pcserve: %w", s.waitErr)
		}
		return nil
	case <-time.After(30 * time.Second):
		s.kill()
		return fmt.Errorf("pcserve did not drain within 30s")
	}
}

func (s *serverProc) kill() {
	s.cmd.Process.Kill() //nolint:errcheck // the process may already be gone; Wait reaps it either way
	<-s.exited
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times on Linux.
const clockTicks = 100

// cpuSeconds reads pcserve's user plus system CPU time so far.
func (s *serverProc) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading pcserve CPU time: %w", err)
	}
	// Fields after the parenthesized command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", s.cmd.Process.Pid)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", s.cmd.Process.Pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", s.cmd.Process.Pid)
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMiB reads pcserve's peak resident set (VmHWM).
func (s *serverProc) peakRSSMiB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, fmt.Errorf("reading pcserve memory: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("malformed VmHWM line %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

// Response shapes of the wire protocol (internal/server/api.go).
type ioBlock struct {
	Reads     int64 `json:"reads"`
	Writes    int64 `json:"writes"`
	CacheHits int64 `json:"cache_hits"`
}

type queryResp struct {
	Count  int               `json:"count"`
	Points []pathcache.Point `json:"points"`
	IO     ioBlock           `json:"io"`
}

type updateResp struct {
	Records int     `json:"records"`
	IO      ioBlock `json:"io"`
}

// client is one closed-loop HTTP/1.1 client on its own keep-alive
// connection. It writes each request itself and parses the response with
// http.ReadResponse. On two CPUs whatever the client spends is taken from
// the server it measures, and on search-uniform net/http's Transport costs
// the client 30 µs of CPU per request against 17 µs for this, with 17%
// less throughput (baseline.json, client_paths).
type client struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	req  []byte       // request being written
	body bytes.Buffer // the last response body
	resp queryResp    // reused so decoding reuses its points slice
}

func newClient(addr string) *client { return &client{addr: addr} }

func (c *client) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// post sends one request and reads the whole response body, dialing first
// if the connection was never opened or was lost.
func (c *client) post(path string, body []byte) (int, error) {
	if c.conn == nil {
		conn, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, err
		}
		c.conn, c.br = conn, bufio.NewReaderSize(conn, 64<<10)
	}
	c.req = append(c.req[:0], "POST "...)
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.addr...)
	c.req = append(c.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
	c.req = strconv.AppendInt(c.req, int64(len(body)), 10)
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, body...)
	if err := c.conn.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		c.close()
		return 0, err
	}
	if _, err := c.conn.Write(c.req); err != nil {
		c.close()
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	return resp.StatusCode, err
}

// tally accumulates one client's results over one phase of a round.
type tally struct {
	queryUS, updateUS []float64 // latencies of measured requests
	queryReads        []int64   // io.reads of each measured query, in order
	attempted, failed int
	errs              []string
	obs               []observation // lsm-mixed: what each query saw of the writer's records
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.errs) < 5 {
		t.errs = append(t.errs, fmt.Sprintf(format, args...))
	}
}

func (t *tally) merge(o *tally) {
	t.queryUS = append(t.queryUS, o.queryUS...)
	t.updateUS = append(t.updateUS, o.updateUS...)
	t.queryReads = append(t.queryReads, o.queryReads...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.errs = append(t.errs, o.errs...)
	t.obs = append(t.obs, o.obs...)
}

// checker holds what checking an answer needs beyond the request itself.
type checker struct {
	baseIDs uint64       // IDs above this are the writer's
	stamps  *stampOracle // nil on static stores
	records int64        // lsm: live records the writer expects after its last ack
}

func newChecker(pl *plan) *checker {
	ch := &checker{baseIDs: pl.baseIDs()}
	if pl.spec.lsm {
		ch.stamps = newStampOracle()
		ch.records = int64(pl.spec.n)
	}
	return ch
}

// do sends one request and checks its answer; measured requests add their
// latency (and a query's page reads) to t.
func (c *client) do(rq request, ch *checker, t *tally, measured bool) {
	t.attempted++
	var start uint64
	switch rq.op {
	case opQuery:
		if ch.stamps != nil {
			start = ch.stamps.tick()
		}
	case opInsert:
		ch.stamps.stamp(rq.p, func(s *stamps, at uint64) { s.insSubmit = at })
	case opDelete:
		ch.stamps.stamp(rq.p, func(s *stamps, at uint64) { s.delSubmit = at })
	}
	t0 := time.Now()
	status, err := c.post(rq.path(), rq.body)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	if err != nil {
		t.fail("%s %s: %v", rq.path(), rq.body, err)
		return
	}
	if status != http.StatusOK {
		t.fail("%s %s: status %d: %s", rq.path(), rq.body, status, bytes.TrimSpace(c.body.Bytes()))
		return
	}
	if rq.op != opQuery {
		c.checkUpdate(rq, ch, t, measured, us)
		return
	}
	var end uint64
	if ch.stamps != nil {
		end = ch.stamps.tick()
	}
	if err := decodeQuery(c.body.Bytes(), &c.resp); err != nil {
		t.fail("decoding query response: %v", err)
		return
	}
	extra, err := checkAnswer(rq.a, rq.b, c.resp.Count, c.resp.Points, rq.want, ch.baseIDs)
	if err != nil {
		t.fail("wrong answer: %v", err)
		return
	}
	if ch.stamps != nil {
		t.obs = append(t.obs, observation{a: rq.a, b: rq.b, got: extra, start: start, end: end})
	}
	if measured {
		t.queryUS = append(t.queryUS, us)
		t.queryReads = append(t.queryReads, c.resp.IO.Reads)
	}
}

// checkUpdate acknowledges an insert or delete in the stamp oracle and
// checks the live-record count the write tier reports: with one writer it
// is exactly the base plus the writer's inserts minus its deletes.
func (c *client) checkUpdate(rq request, ch *checker, t *tally, measured bool, us float64) {
	var resp updateResp
	if err := json.Unmarshal(c.body.Bytes(), &resp); err != nil {
		t.fail("decoding update response: %v", err)
		return
	}
	if rq.op == opInsert {
		ch.stamps.stamp(rq.p, func(s *stamps, at uint64) { s.insAck = at })
		ch.records++
	} else {
		ch.stamps.stamp(rq.p, func(s *stamps, at uint64) { s.delAck = at })
		ch.records--
	}
	if int64(resp.Records) != ch.records {
		t.fail("%s %s: store reports %d live records, want %d", rq.path(), rq.body, resp.Records, ch.records)
		return
	}
	if measured {
		t.updateUS = append(t.updateUS, us)
	}
}

// runPair runs both clients' functions concurrently and waits for both.
func runPair(fn func(c int)) {
	var wg sync.WaitGroup
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}
