package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"formext"
	"formext/internal/metrics"
	"formext/internal/model"
)

// extractReply is the part of a formserve /extract response the benchmark
// decodes: the served model and the per-stage timings every response
// carries.
type extractReply struct {
	Model *model.SemanticModel `json:"model"`
	Stats struct {
		Stages formext.StageTimings `json:"stages"`
	} `json:"stats"`
}

func decodeExtract(body []byte) (*extractReply, error) {
	var r extractReply
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("undecodable /extract body: %w", err)
	}
	if r.Model == nil {
		return nil, fmt.Errorf("/extract body without a model")
	}
	return &r, nil
}

// served is one served extraction kept for the output checks: the page and
// the model the server answered with.
type served struct {
	page  page
	model *model.SemanticModel
}

// Output checks re-extract checkSample served pages, drawn evenly from
// every checkEvery-th distinct page a run served.
const (
	checkEvery  = 25
	checkSample = 40
)

// servedLog scores served models against ground truth as they arrive, one
// score per distinct page, and keeps every every-th page and model for the
// reference check; the rest of the pages are not retained.
type servedLog struct {
	every  int
	mu     sync.Mutex
	seen   map[int]bool // page numbers already scored
	scores []metrics.SourceResult
	sample []served
}

func (l *servedLog) add(key int, p page, m *model.SemanticModel) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.seen == nil {
		l.seen = map[int]bool{}
	}
	if l.seen[key] {
		return
	}
	l.seen[key] = true
	if len(l.scores)%l.every == 0 {
		l.sample = append(l.sample, served{p, m})
	}
	l.scores = append(l.scores, metrics.Match(p.truth, m.Conditions, false))
}

// canonical renders a model as the JSON a client would read back, so a
// model that crossed the wire and one extracted in process compare equal
// exactly when their JSON does.
func canonical(m *model.SemanticModel) ([]byte, error) {
	b, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	var back model.SemanticModel
	if err := json.Unmarshal(b, &back); err != nil {
		return nil, err
	}
	return json.Marshal(&back)
}

// checkReference re-extracts every sampled page in process under
// Options{InterpretedEval: true}, the repository's semantic reference, and
// requires the served model to equal it as JSON.
func checkReference(sample []served) error {
	ref, err := formext.NewPool(formext.Options{InterpretedEval: true})
	if err != nil {
		return err
	}
	for i, s := range sample {
		res, err := ref.ExtractBytes(context.Background(), s.page.body)
		if err != nil {
			return fmt.Errorf("reference extraction %d: %w", i, err)
		}
		want, err := canonical(res.Model)
		if err != nil {
			return err
		}
		got, err := canonical(s.model)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, got) {
			return fmt.Errorf("served model %d differs from the interpreted reference:\nserved    %s\nreference %s", i, got, want)
		}
	}
	return nil
}

// spread picks up to n entries evenly spaced over all: a seeded run's
// check sample covers its whole measured phase, not just its start.
func spread(all []served, n int) []served {
	if len(all) <= n {
		return all
	}
	out := make([]served, 0, n)
	for k := 0; k < n; k++ {
		out = append(out, all[k*len(all)/n])
	}
	return out
}

// runChecks applies the reference check to sample and folds the paper's
// Fig. 15 quality of every served model — overall accuracy, soundness
// (precision) and completeness (recall) against ground truth — into the
// result. A failed check marks the run incorrect.
func runChecks(res *result, sample []served, scores []metrics.SourceResult) {
	start := time.Now()
	if err := checkReference(sample); err != nil {
		logf("output check failed: %v", err)
		res.Correct = false
	}
	q := metrics.Summarize(scores)
	res.set("accuracy", q.Accuracy, "ratio")
	res.set("soundness", q.OverallPrecision, "ratio")
	res.set("completeness", q.OverallRecall, "ratio")
	logf("checked %d served models (%d against the reference) in %v: accuracy %.4f precision %.4f recall %.4f",
		len(scores), len(sample), time.Since(start).Round(time.Millisecond),
		q.Accuracy, q.OverallPrecision, q.OverallRecall)
}
