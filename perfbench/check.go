package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"must/internal/server"
)

// ledger checks every answer against what the benchmark has been told
// so far and counts attempts and failures across all phases of a run.
type ledger struct {
	known     map[int64]bool          // every ID the daemon has handed out
	inserted  map[int64]int           // acked insert ID → extra-object index
	deletedAt map[int64]time.Duration // acked delete ID → ack time, from the run start
	base      int

	attempted, failedOps, refused, failedChecks int
	problems                                    []string // first few failed checks
}

func newLedger(baseIDs []int64) *ledger {
	l := &ledger{known: make(map[int64]bool), inserted: make(map[int64]int), deletedAt: make(map[int64]time.Duration), base: len(baseIDs)}
	for _, id := range baseIDs {
		l.known[id] = true
	}
	return l
}

func (l *ledger) fail(format string, args ...any) {
	l.failedChecks++
	if len(l.problems) < 5 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

func (l *ledger) failed() int { return l.failedOps + l.refused + l.failedChecks }

// expectedObjects is the live count the daemon must report.
func (l *ledger) expectedObjects() int { return l.base + len(l.inserted) - len(l.deletedAt) }

// account checks one phase's replies; offset is the phase start from
// the run start. It returns the decoded search replies, aligned with
// ops and nil where the op is not a search that passed its checks.
func (l *ledger) account(ops []op, out []outcome, offset time.Duration) []*server.SearchResponse {
	// Writes first, so every acked delete is known before the searches
	// sent after its ack are checked.
	for i, o := range ops {
		r := out[i]
		l.attempted++
		switch {
		case r.err != nil:
			l.failedOps++
			continue
		case r.status == http.StatusTooManyRequests:
			l.refused++
			continue
		case r.status != http.StatusOK:
			l.failedOps++
			continue
		}
		switch o.kind {
		case opInsert:
			var resp server.InsertResponse
			if err := json.Unmarshal(r.body, &resp); err != nil || len(resp.IDs) != 1 {
				l.fail("insert reply %q is not one ID", r.body)
				continue
			}
			id := resp.IDs[0]
			if l.known[id] {
				l.fail("insert returned ID %d, which was already handed out", id)
				continue
			}
			l.known[id] = true
			l.inserted[id] = o.ref
		case opDelete:
			var resp server.DeleteResponse
			if err := json.Unmarshal(r.body, &resp); err != nil || resp.Deleted != 1 {
				l.fail("delete of ID %d replied %q", o.ref, r.body)
				continue
			}
			l.deletedAt[int64(o.ref)] = offset + r.done
		}
	}
	replies := make([]*server.SearchResponse, len(ops))
	for i, o := range ops {
		r := out[i]
		if o.kind != opSearch || r.err != nil || r.status != http.StatusOK {
			continue
		}
		resp := new(server.SearchResponse)
		if err := json.Unmarshal(r.body, resp); err != nil {
			l.fail("search reply does not decode: %v", err)
			continue
		}
		if err := l.checkSearch(resp, offset+r.sent); err != nil {
			l.fail("search %d: %v", i, err)
			continue
		}
		replies[i] = resp
	}
	return replies
}

// checkSearch verifies one reply to a search sent at sent: at most k
// distinct known IDs in non-increasing similarity, none deleted by an
// acked delete before the request.
func (l *ledger) checkSearch(resp *server.SearchResponse, sent time.Duration) error {
	if len(resp.Matches) > k {
		return fmt.Errorf("%d matches for k=%d", len(resp.Matches), k)
	}
	seen := make(map[int64]bool, len(resp.Matches))
	for j, m := range resp.Matches {
		if seen[m.ID] {
			return fmt.Errorf("ID %d appears twice", m.ID)
		}
		seen[m.ID] = true
		if !l.known[m.ID] {
			return fmt.Errorf("ID %d was never handed out", m.ID)
		}
		if at, ok := l.deletedAt[m.ID]; ok && at < sent {
			return fmt.Errorf("ID %d was returned after its delete was acked", m.ID)
		}
		if j > 0 && m.Similarity > resp.Matches[j-1].Similarity {
			return fmt.Errorf("similarity rises at rank %d", j)
		}
	}
	return nil
}
