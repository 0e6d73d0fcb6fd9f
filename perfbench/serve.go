package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"taskprune/internal/server"
	"taskprune/internal/stats"
)

const (
	// fleetConfig is the shipped daemon deployment the workload boots.
	fleetConfig = "examples/serve/fleet.json"
	// sessionTasks is how many single-task POSTs one daemon session takes
	// before it is drained: the daemon's counterpart of an 800-task trial.
	sessionTasks = trialTasks
	// spanHeader carries the client's request span ("index/id") to the
	// handler wrapper on traced sessions.
	spanHeader = "X-Perfbench-Span"
)

// session is what one daemon lifetime reports.
type session struct {
	setup      time.Duration // PET build + boot until /healthz answers 200
	elapsed    time.Duration // first POST until Drain returns
	drain      time.Duration
	latency    []float64 // client-observed POST latency per request, ns
	attempted  int
	accepted   int
	failed     int // 429s, other non-202 answers and transport errors
	robustness float64
	queueMax   int      // highest queue_depth a response reported
	lagMax     int64    // highest accepted − submitted /v1/status showed (traced)
	problems   []string // failed output checks
	ref        int      // the host-speed sample taken right before it
}

// sessionTypes draws the task types of one session's submissions.
func sessionTypes(seed int64, idx, nTypes int) [][]byte {
	rng := stats.NewRNG(inputSeed(seed, idx))
	bodies := make([][]byte, sessionTasks)
	for i := range bodies {
		bodies[i] = []byte(fmt.Sprintf(`{"type":%d}`, rng.Intn(nTypes)))
	}
	return bodies
}

// daemon is one booted daemon serving on loopback.
type daemon struct {
	d      *server.Server
	srv    *http.Server
	served chan struct{}
	base   string
}

// bootDaemon builds the SPEC PET (as a cold daemon process does once),
// loads the shipped deployment, boots the daemon, serves its handler on a
// loopback port (wrapped in span recording when tracing) and waits until
// /healthz answers 200.
func bootDaemon(root string, client *http.Client, tr *tracer) (*daemon, error) {
	buildPET()
	cfg, err := server.LoadConfig(filepath.Join(root, fleetConfig))
	if err != nil {
		return nil, err
	}
	d, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	d.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = d.Drain(context.Background())
		return nil, err
	}
	h := d.Handler()
	if tr != nil {
		h = tracedHandler{h: h, tr: tr}
	}
	dm := &daemon{d: d, srv: &http.Server{Handler: h}, served: make(chan struct{}), base: "http://" + ln.Addr().String()}
	go func() {
		defer close(dm.served)
		_ = dm.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	for i := 0; ; i++ {
		resp, err := client.Get(dm.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return dm, nil
			}
		}
		if i == 1000 {
			dm.close()
			return nil, fmt.Errorf("daemon never became healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// close drains the daemon if nobody has, stops the listener and waits for
// the serving goroutine to exit.
func (dm *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = dm.d.Drain(ctx) // a repeated drain returns at once
	_ = dm.srv.Close()
	<-dm.served
}

// submitReply is the POST /v1/tasks answer body.
type submitReply struct {
	Accepted *int `json:"accepted"`
	Queued   *int `json:"queue_depth"`
}

// runSession boots a daemon, lets `clients` closed-loop clients POST the
// session's tasks one per request, drains it and checks the accounting.
// Failed checks land in the session's problems; err is for a session that
// could not run at all.
func runSession(root string, seed int64, idx, clients int, tr *tracer) (session, error) {
	var s session
	tp := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}
	defer tp.CloseIdleConnections()
	client := &http.Client{Transport: tp}
	t0 := time.Now()
	dm, err := bootDaemon(root, client, tr)
	if err != nil {
		return s, err
	}
	defer dm.close()
	s.setup = time.Since(t0)
	bodies := sessionTypes(seed, idx, dm.d.Matrix().NumTypes())
	codes := make([]int, len(bodies))
	replies := make([]submitReply, len(bodies))
	s.latency = make([]float64, len(bodies))

	stopLag, lagDone := make(chan struct{}), make(chan int64, 1)
	if tr != nil {
		go func() { lagDone <- pollAdmitLag(dm.base, stopLag) }()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				id := int32(idx*sessionTasks + i)
				sp := tr.begin("server.request", -1, id)
				t := time.Now()
				codes[i] = post(client, dm.base+"/v1/tasks", bodies[i], &replies[i], sp, id)
				s.latency[i] = float64(time.Since(t))
				tr.end(sp)
			}
		}()
	}
	wg.Wait()
	if tr != nil {
		close(stopLag)
		s.lagMax = <-lagDone
	}

	s.attempted = len(bodies)
	for i, code := range codes {
		switch {
		case code == http.StatusAccepted || code == http.StatusTooManyRequests:
			if replies[i].Accepted == nil || replies[i].Queued == nil {
				s.problems = append(s.problems, fmt.Sprintf("request %d: %d answer without accepted/queue_depth", i, code))
				continue
			}
			s.accepted += *replies[i].Accepted
			s.queueMax = max(s.queueMax, *replies[i].Queued)
			if code != http.StatusAccepted {
				s.failed++
			}
		case code < 0:
			s.failed++ // transport error
		default:
			s.failed++
			s.problems = append(s.problems, fmt.Sprintf("request %d: status %d (0: a body that is not JSON)", i, code))
		}
	}
	td := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := dm.d.Drain(ctx); err != nil {
		return s, err
	}
	s.drain = time.Since(td)
	s.elapsed = time.Since(start)

	// A drained daemon still serves its status; the count it accepted is
	// final by now.
	st, err := getStatus(client, dm.base)
	if err != nil {
		return s, err
	}
	if st.Accepted != int64(s.accepted) {
		s.problems = append(s.problems, fmt.Sprintf("responses accepted %d tasks, /v1/status says %d", s.accepted, st.Accepted))
	}
	if f := dm.d.Final(); f == nil || f.Total != s.accepted {
		s.problems = append(s.problems, fmt.Sprintf("drained daemon accounted for %v tasks of %d accepted", f, s.accepted))
	} else {
		s.robustness = f.RobustnessPct
	}
	return s, nil
}

// post sends one submission and decodes the reply; it returns the status
// code, -1 on a transport error, or 0 when the body is not JSON.
func post(c *http.Client, url string, body []byte, reply *submitReply, sp, id int32) int {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return -1
	}
	req.Header.Set("Content-Type", "application/json")
	if sp >= 0 {
		req.Header.Set(spanHeader, fmt.Sprintf("%d/%d", sp, id))
	}
	resp, err := c.Do(req)
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(reply); err != nil {
		return 0 // reported as an unexpected status
	}
	return resp.StatusCode
}

// getStatus fetches /v1/status.
func getStatus(c *http.Client, base string) (server.Status, error) {
	var st server.Status
	resp, err := c.Get(base + "/v1/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/v1/status answered %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// pollAdmitLag samples /v1/status on its own connection until stop closes
// and returns the largest accepted − submitted gap it saw: submissions
// buffered in the LiveSource but not yet admitted by the pump.
func pollAdmitLag(base string, stop <-chan struct{}) int64 {
	tp := &http.Transport{}
	defer tp.CloseIdleConnections()
	c := &http.Client{Transport: tp}
	var lag int64
	for {
		select {
		case <-stop:
			return lag
		default:
		}
		if st, err := getStatus(c, base); err == nil {
			lag = max(lag, st.Accepted-int64(st.Submitted))
		}
		time.Sleep(time.Millisecond)
	}
}

// tracedHandler records a server.handler span per request, parented to
// the client's request span named in the spanHeader.
type tracedHandler struct {
	h  http.Handler
	tr *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	parent, id := int32(-1), int32(-1)
	if v := r.Header.Get(spanHeader); v != "" {
		p, i, _ := strings.Cut(v, "/")
		pn, _ := strconv.Atoi(p)
		in, _ := strconv.Atoi(i)
		parent, id = int32(pn), int32(in)
	}
	sp := t.tr.begin("server.handler", parent, id)
	t.h.ServeHTTP(w, r)
	t.tr.end(sp)
}
