package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"sync"

	"routeless/internal/metrics"
)

// journalSink is the io.Writer a run's journal goes to: it counts and
// hashes the bytes, and keeps them when asked (the serve reference runs
// need the exact bytes to compare streams against).
type journalSink struct {
	h    hash.Hash
	n    int
	keep bool
	buf  bytes.Buffer
}

func newJournalSink(keep bool) *journalSink { return &journalSink{h: sha256.New(), keep: keep} }

func (s *journalSink) Write(p []byte) (int, error) {
	s.h.Write(p)
	s.n += len(p)
	if s.keep {
		s.buf.Write(p)
	}
	return len(p), nil
}

func (s *journalSink) sum() [32]byte {
	var out [32]byte
	copy(out[:], s.h.Sum(nil))
	return out
}

// outcome is what one completed document run produced, as far as the
// output checks are concerned.
type outcome struct {
	journalSHA   [32]byte
	journalBytes int
	// counts is the canonical JSON of the final metrics snapshot: every
	// per-layer counter of the run.
	counts []byte
	events uint64
}

func newOutcome(sink *journalSink, snap *metrics.Snapshot, events uint64) (outcome, error) {
	counts, err := json.Marshal(snap)
	if err != nil {
		return outcome{}, err
	}
	return outcome{journalSHA: sink.sum(), journalBytes: sink.n, counts: counts, events: events}, nil
}

// sameAs explains how a repeat run of one document differs from its
// first run, or returns nil when the two are identical.
func (o outcome) sameAs(first outcome) error {
	switch {
	case o.journalSHA != first.journalSHA:
		return fmt.Errorf("journal SHA-256 %x differs from first run's %x", o.journalSHA[:6], first.journalSHA[:6])
	case !bytes.Equal(o.counts, first.counts):
		return fmt.Errorf("per-layer counts differ from first run")
	case o.events != first.events:
		return fmt.Errorf("processed %d events, first run processed %d", o.events, first.events)
	}
	return nil
}

// checkStreams verifies one serve session's journals: the streamed
// journal must equal the batch journal of the same document, and the
// resumed run's journal must be a proper suffix of it.
func checkStreams(batch, streamed, resumed []byte) error {
	if !bytes.Equal(streamed, batch) {
		return fmt.Errorf("streamed journal (%d bytes) differs from batch journal (%d bytes)", len(streamed), len(batch))
	}
	if len(resumed) == 0 || len(resumed) >= len(streamed) || !bytes.HasSuffix(streamed, resumed) {
		return fmt.Errorf("resumed journal (%d bytes) is not a proper suffix of the original (%d bytes)", len(resumed), len(streamed))
	}
	return nil
}

// tally counts operations and failed operations; the first few failure
// reasons are kept for the report.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	reasons   []string
}

func (t *tally) record(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.reasons) < 8 {
			t.reasons = append(t.reasons, err.Error())
		}
	}
}

func (t *tally) errorRate() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
