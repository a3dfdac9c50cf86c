package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"routeless/internal/scenario"
	"routeless/internal/serve"
)

// Serve workload shape: one closed-loop client, the pass loop itself,
// against an in-process server with one pool worker. The benchmark runs
// on one P (see main), where more clients and workers only interleave,
// and their hand-offs made a pass's CPU time spread several times wider.
const (
	serveWorkers = 1
	// referenceBuilds is how many times set-up builds each session
	// document, for a steadier setup_s median.
	referenceBuilds = 3
)

// serveRunner drives sessions against a fresh in-process server per
// pass, so a pass's cost does not depend on how many passes came
// before it (the server keeps every finished run in memory).
type serveRunner struct {
	docs    []scenario.Scenario
	bodies  [][]byte
	batch   [][]byte  // reference batch journal per document
	at      []float64 // snapshot time per document: half its end time
	pc      passCounts
	tally   *tally
	session int
}

// newServeRunner runs every session document through the batch path
// first: those journals are what the streamed ones must equal. The
// builds are the workload's set-up samples.
func newServeRunner(docs []scenario.Scenario, t *tally, w *window) (*serveRunner, error) {
	s := &serveRunner{docs: docs, tally: t}
	for i, sc := range docs {
		body, err := json.Marshal(sc)
		if err != nil {
			return nil, err
		}
		for k := 1; k < referenceBuilds; k++ {
			st := now()
			if _, err := scenario.Build(sc); err != nil {
				return nil, err
			}
			_, cpu := st.since()
			w.buildS = append(w.buildS, cpu)
		}
		w.openPass()
		dr, err := runDocument(sc, w, untraced, 0, true)
		if err != nil {
			return nil, fmt.Errorf("session document %d: %w", i, err)
		}
		if dr.finishErr != nil {
			err = fmt.Errorf("session document %d: Finish: %w", i, dr.finishErr)
		}
		t.record(err)
		s.pc.add(dr.snap, dr.out.events, dr.queuePeak, 0)
		s.bodies = append(s.bodies, body)
		s.batch = append(s.batch, dr.journal)
		s.at = append(s.at, float64(dr.end)/2)
	}
	return s, nil
}

func (s *serveRunner) counts() passCounts { return s.pc }

// sessionResult is one session's timings and byte counts.
type sessionResult struct {
	sessionS, createS, firstByteS, snapshotS, resumeS float64
	journalBytes, snapshotBytes                       int
}

func (s *serveRunner) pass(w *window, tr *tracer) {
	srv := serve.New(serveWorkers)
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Close()
	}()
	client := ts.Client()

	var results []sessionResult
	var hostWall, hostCPU float64
	st := now()
	tr.do("pass", 0, 0, func(pid int) {
		for i := range s.docs {
			s.session++
			id := s.session
			var res sessionResult
			var err error
			tr.do("session", pid, id, func(sid int) {
				res, err = s.runSession(client, ts.URL, i, w, tr, sid, id)
			})
			s.tally.record(err)
			results = append(results, res)
			if !tr.on {
				wall, cpu := probeHost()
				hostWall, hostCPU = hostWall+wall, hostCPU+cpu
			}
		}
	})
	// The probes ran inside the timed pass; their time is not the
	// program's.
	wall, cpu := st.since()
	w.passS, w.passWall = append(w.passS, cpu-hostCPU), append(w.passWall, wall-hostWall)
	if !tr.on {
		w.hostS = append(w.hostS, hostCPU/float64(len(s.docs)))
	}

	var journal, snaps int
	for _, r := range results {
		w.sessionS = append(w.sessionS, r.sessionS)
		w.createS = append(w.createS, r.createS)
		w.firstByteS = append(w.firstByteS, r.firstByteS)
		w.snapshotS = append(w.snapshotS, r.snapshotS)
		w.resumeS = append(w.resumeS, r.resumeS)
		journal += r.journalBytes
		snaps += r.snapshotBytes
	}
	if s.pc.journalBytes == 0 && len(results) > 0 {
		s.pc.journalBytes = float64(journal)
		s.pc.snapshotBytes = float64(snaps) / float64(len(results))
	}
}

// runSession is one client session: create a run, tail its journal to
// EOF, checkpoint it at half its end time, resume the checkpoint as a
// new run and tail that. The streamed journal must equal the batch
// bytes and the resumed journal must be its suffix.
func (s *serveRunner) runSession(c *http.Client, base string, i int, w *window, tr *tracer, parent, session int) (sessionResult, error) {
	var res sessionResult
	start := time.Now()
	var created struct {
		ID string `json:"id"`
	}
	var body []byte
	var err error
	timed(&res.createS, func() {
		tr.do("POST /runs", parent, session, func(int) {
			body, err = request(c, http.MethodPost, base+"/runs", s.bodies[i])
		})
	})
	w.heap.observe()
	if err == nil {
		err = json.Unmarshal(body, &created)
	}
	if err != nil {
		return res, fmt.Errorf("create: %w", err)
	}

	var streamed []byte
	tr.do("GET journal", parent, session, func(int) {
		streamed, err = tail(c, base+"/runs/"+created.ID+"/journal", &res.firstByteS)
	})
	w.heap.observe()
	if err != nil {
		return res, fmt.Errorf("tail: %w", err)
	}

	var snap []byte
	timed(&res.snapshotS, func() {
		tr.do("POST snapshot", parent, session, func(int) {
			snap, err = request(c, http.MethodPost, fmt.Sprintf("%s/runs/%s/snapshot?at=%g", base, created.ID, s.at[i]), nil)
		})
	})
	w.heap.observe()
	if err != nil {
		return res, fmt.Errorf("snapshot: %w", err)
	}

	var resumed struct {
		ID string `json:"id"`
	}
	timed(&res.resumeS, func() {
		tr.do("POST resume", parent, session, func(int) {
			body, err = request(c, http.MethodPost, base+"/runs/"+created.ID+"/resume", snap)
		})
	})
	w.heap.observe()
	if err == nil {
		err = json.Unmarshal(body, &resumed)
	}
	if err != nil {
		return res, fmt.Errorf("resume: %w", err)
	}

	var suffix []byte
	var ignored float64
	tr.do("GET journal", parent, session, func(int) {
		suffix, err = tail(c, base+"/runs/"+resumed.ID+"/journal", &ignored)
	})
	w.heap.observe()
	if err != nil {
		return res, fmt.Errorf("tail resumed: %w", err)
	}
	res.sessionS = time.Since(start).Seconds()
	res.journalBytes = len(streamed) + len(suffix)
	res.snapshotBytes = len(snap)
	return res, checkStreams(s.batch[i], streamed, suffix)
}

func timed(dst *float64, fn func()) {
	t0 := time.Now()
	fn()
	*dst = time.Since(t0).Seconds()
}

// request sends one request and returns the body; a non-2xx status is
// an error.
func request(c *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, nil
}

// tail reads a journal stream to EOF, recording the seconds from the
// request to its first body byte.
func tail(c *http.Client, url string, firstByteS *float64) ([]byte, error) {
	t0 := time.Now()
	resp, err := c.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	var buf bytes.Buffer
	first := make([]byte, 1)
	n, err := io.ReadFull(resp.Body, first)
	*firstByteS = time.Since(t0).Seconds()
	buf.Write(first[:n])
	if err != nil {
		if err == io.EOF {
			return buf.Bytes(), nil
		}
		return nil, err
	}
	_, err = buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}
