package main

import (
	"testing"
)

// TestLabEndToEnd runs a small multi-domain lab through the full loop:
// generate → serve → extract with the real pipeline → register → query →
// score against the record oracle. On noise-free domains routing must be
// essentially perfect and answers must match the oracle.
func TestLabEndToEnd(t *testing.T) {
	opt := options{
		domains: "Books,Airfares,Automobiles", perDomain: 3, records: 24,
		queries: 24, concurrency: 4, fanout: 8, seed: 11, hardness: 0,
	}
	schemas, err := resolveSchemas(opt.domains)
	if err != nil {
		t.Fatal(err)
	}
	l := &lab{opt: opt, schemas: schemas}
	defer l.close()
	if err := l.build(); err != nil {
		t.Fatal(err)
	}
	if len(l.sources) != 9 {
		t.Fatalf("sources = %d, want 9 across 3 domains", len(l.sources))
	}

	queries := l.makeWorkload()
	if len(queries) == 0 {
		t.Fatal("empty workload")
	}
	outs := l.drive(queries)
	r, err := l.score(queries, outs)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Domains) != 3 {
		t.Fatalf("domain reports = %d, want 3", len(r.Domains))
	}
	for _, d := range r.Domains {
		if d.RoutingPrecision < 0.9 || d.RoutingRecall < 0.9 {
			t.Errorf("domain %s routing P=%.3f R=%.3f below 0.9 on a noise-free run",
				d.Domain, d.RoutingPrecision, d.RoutingRecall)
		}
		if d.Completeness < 0.9 {
			t.Errorf("domain %s completeness %.3f below 0.9", d.Domain, d.Completeness)
		}
		if d.Soundness < 0.9 {
			t.Errorf("domain %s soundness %.3f below 0.9", d.Domain, d.Soundness)
		}
	}
	if r.Throughput.QPS <= 0 {
		t.Fatal("throughput not measured")
	}
	if r.Schema != reportSchema {
		t.Fatalf("schema = %q", r.Schema)
	}
}

// TestRunKillPhase exercises run() end to end including the kill phase,
// asserting the degrade-don't-error contract at the CLI level: run fails on
// any kill-phase query error, on a kill phase with no degraded answer, and
// on routing precision/recall below the floor.
func TestRunKillPhase(t *testing.T) {
	if testing.Short() {
		t.Skip("full CLI run")
	}
	cases := []struct {
		name string
		opt  options
	}{
		{"books", options{
			domains: "Books", perDomain: 3, records: 24, queries: 12,
			concurrency: 4, fanout: 8, seed: 11, hardness: 0,
			kill: true, minRouting: 0.9,
		}},
		// The CLI defaults: three domains, four sources each.
		{"defaults", options{
			domains: "Books,Airfares,Automobiles", perDomain: 4, records: 48, queries: 60,
			concurrency: 8, fanout: 8, seed: 11, hardness: 0,
			kill: true, minRouting: 0.9,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// run() writes its JSON report to stdout; that noise is
			// acceptable under go test. A non-nil error is the only failure
			// signal.
			if err := run(c.opt); err != nil {
				t.Fatalf("run: %v", err)
			}
		})
	}
}

// TestSoundAtHardnessZero holds /query soundness as an invariant on
// noise-free sources: at the CLI defaults, no seed may return a record
// that violates a query constraint. A constraint that matches no unified
// attribute must empty the answer, not widen it.
func TestSoundAtHardnessZero(t *testing.T) {
	if testing.Short() {
		t.Skip("ten full labs")
	}
	for seed := int64(1); seed <= 10; seed++ {
		opt := options{
			domains: "Books,Airfares,Automobiles", perDomain: 4, records: 48, queries: 60,
			concurrency: 8, fanout: 8, seed: seed, hardness: 0,
		}
		schemas, err := resolveSchemas(opt.domains)
		if err != nil {
			t.Fatal(err)
		}
		l := &lab{opt: opt, schemas: schemas}
		if err := l.build(); err != nil {
			l.close()
			t.Fatal(err)
		}
		queries := l.makeWorkload()
		r, err := l.score(queries, l.drive(queries))
		l.close()
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range r.Domains {
			if d.Soundness != 1 {
				t.Errorf("seed %d: domain %s soundness %.3f, want 1", seed, d.Domain, d.Soundness)
			}
		}
	}
}

func TestResolveSchemasErrors(t *testing.T) {
	if _, err := resolveSchemas("Books,NoSuchDomain"); err == nil {
		t.Fatal("unknown schema accepted")
	}
	if _, err := resolveSchemas(""); err == nil {
		t.Fatal("empty schema list accepted")
	}
}
