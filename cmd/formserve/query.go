// Deep-web query mediation endpoints: formserve doubles as a MetaQuerier
// front end. Registered sources (each an endpoint plus the query interface
// extracted from its HTML by the shared extractor) form one unified interface;
// POST /query routes a constraint query across them, translates and
// submits it natively per source, and unifies the answers. Source
// registration is live (/sources CRUD) or loaded at startup
// (-sources-file).
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"formext/internal/metaquery"
)

// sourceSpec is the registration payload of POST /sources and the entry
// shape of -sources-file: where the source lives and what its interface
// looks like. Exactly one of html/htmlFile supplies the page; the model is
// always produced by the real extraction pipeline, never trusted from the
// client.
type sourceSpec struct {
	ID       string `json:"id"`
	Endpoint string `json:"endpoint"`
	HTML     string `json:"html,omitempty"`
	HTMLFile string `json:"htmlFile,omitempty"`
}

// sourceSummary is the /sources listing entry: registration facts plus
// what extraction found, so an operator can see at a glance whether a
// source contributes to the unified interface.
type sourceSummary struct {
	ID         string `json:"id"`
	Endpoint   string `json:"endpoint"`
	Conditions int    `json:"conditions"`
	Action     string `json:"action"`
	Method     string `json:"method"`
}

// registerSource extracts the spec's page through the shared extractor and
// upserts the source into the engine. The extraction runs under the same
// serving deadline as /extract.
func (s *server) registerSource(ctx context.Context, spec sourceSpec) (sourceSummary, error) {
	var zero sourceSummary
	if spec.ID == "" {
		return zero, fmt.Errorf("source spec: id is required")
	}
	if spec.Endpoint == "" {
		return zero, fmt.Errorf("source %s: endpoint is required", spec.ID)
	}
	page := spec.HTML
	if page == "" && spec.HTMLFile != "" {
		data, err := os.ReadFile(spec.HTMLFile)
		if err != nil {
			return zero, fmt.Errorf("source %s: %w", spec.ID, err)
		}
		page = string(data)
	}
	if page == "" {
		return zero, fmt.Errorf("source %s: one of html or htmlFile is required", spec.ID)
	}
	if s.extractTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.extractTimeout)
		defer cancel()
	}
	res, err := s.safeExtract(ctx, []byte(page))
	if err != nil {
		return zero, fmt.Errorf("source %s: extracting interface: %w", spec.ID, err)
	}
	if res.Model == nil || len(res.Model.Conditions) == 0 {
		return zero, fmt.Errorf("source %s: no query conditions extracted", spec.ID)
	}
	s.engine.AddSource(metaquery.Source{
		ID:       spec.ID,
		Endpoint: spec.Endpoint,
		Model:    res.Model,
		Form:     res.Form,
	})
	s.m.sourceRegs.Add(1)
	return sourceSummary{
		ID:         spec.ID,
		Endpoint:   spec.Endpoint,
		Conditions: len(res.Model.Conditions),
		Action:     res.Form.Action,
		Method:     res.Form.Method,
	}, nil
}

// loadSourcesFile registers every entry of a -sources-file (a JSON array
// of sourceSpec) at startup. Any bad entry fails startup: a serving fleet
// must not come up silently missing sources.
func (s *server) loadSourcesFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("formserve: sources file: %w", err)
	}
	var specs []sourceSpec
	if err := json.Unmarshal(data, &specs); err != nil {
		return fmt.Errorf("formserve: sources file %s: %w", path, err)
	}
	for _, spec := range specs {
		if _, err := s.registerSource(context.Background(), spec); err != nil {
			return fmt.Errorf("formserve: sources file %s: %w", path, err)
		}
	}
	return nil
}

// handleQuery is the mediation endpoint: the body is a constraint query
// ([attr=v; attr<v; ...], brackets optional). Everything except a
// malformed query answers 200 with an Answer — dead or unroutable sources
// surface in its degradation report, never as a request error.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "POST a constraint query ([attr=value; ...]) to /query", http.StatusMethodNotAllowed)
		return
	}
	body, ok := readPage(w, r, nil)
	if !ok {
		return
	}
	ctx := r.Context()
	if s.queryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.queryTimeout)
		defer cancel()
	}
	s.m.queries.Add(1)
	start := time.Now()
	ans, err := s.engine.Query(ctx, string(body))
	if err != nil {
		s.m.queryParseErrors.Add(1)
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.m.queryLatency.Observe(time.Since(start).Nanoseconds())
	s.m.queryRecords.Add(int64(len(ans.Records)))
	s.m.queryFanout.Add(int64(ans.Fanout))
	if len(ans.Degraded) > 0 {
		s.m.queryDegraded.Add(1)
	}
	writeJSON(w, ans)
}

// handleSources serves the registry collection: GET lists, POST registers
// (one spec or an array of specs; upsert by id).
func (s *server) handleSources(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		sources := s.engine.Sources()
		out := make([]sourceSummary, 0, len(sources))
		for _, src := range sources {
			sum := sourceSummary{ID: src.ID, Endpoint: src.Endpoint,
				Action: src.Form.Action, Method: src.Form.Method}
			if src.Model != nil {
				sum.Conditions = len(src.Model.Conditions)
			}
			out = append(out, sum)
		}
		writeJSON(w, map[string]any{
			"count":   len(out),
			"unified": len(s.engine.Unified()),
			"sources": out,
		})
	case http.MethodPost:
		body, ok := readPage(w, r, nil)
		if !ok {
			return
		}
		specs, err := decodeSpecs(body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var out []sourceSummary
		for _, spec := range specs {
			sum, err := s.registerSource(r.Context(), spec)
			if err != nil {
				// All-or-nothing registration keeps retries idempotent: the
				// upsert semantics mean re-POSTing the full payload is safe.
				http.Error(w, err.Error(), http.StatusUnprocessableEntity)
				return
			}
			out = append(out, sum)
		}
		writeJSON(w, out)
	default:
		w.Header().Set("Allow", "GET, HEAD, POST")
		http.Error(w, "GET or POST /sources", http.StatusMethodNotAllowed)
	}
}

// decodeSpecs accepts one spec object or an array of them.
func decodeSpecs(body []byte) ([]sourceSpec, error) {
	trimmed := strings.TrimSpace(string(body))
	if strings.HasPrefix(trimmed, "[") {
		var specs []sourceSpec
		if err := json.Unmarshal(body, &specs); err != nil {
			return nil, fmt.Errorf("decoding source specs: %w", err)
		}
		return specs, nil
	}
	var spec sourceSpec
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, fmt.Errorf("decoding source spec: %w", err)
	}
	return []sourceSpec{spec}, nil
}

// handleSourceID serves /sources/<id>: DELETE deregisters, GET summarizes.
func (s *server) handleSourceID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/sources/")
	if id == "" || strings.Contains(id, "/") {
		http.NotFound(w, r)
		return
	}
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		for _, src := range s.engine.Sources() {
			if src.ID == id {
				sum := sourceSummary{ID: src.ID, Endpoint: src.Endpoint,
					Action: src.Form.Action, Method: src.Form.Method}
				if src.Model != nil {
					sum.Conditions = len(src.Model.Conditions)
				}
				writeJSON(w, sum)
				return
			}
		}
		http.Error(w, "no source "+id, http.StatusNotFound)
	case http.MethodDelete:
		if !s.engine.RemoveSource(id) {
			http.Error(w, "no source "+id, http.StatusNotFound)
			return
		}
		s.m.sourceDels.Add(1)
		w.WriteHeader(http.StatusNoContent)
	default:
		w.Header().Set("Allow", "GET, HEAD, DELETE")
		http.Error(w, "GET or DELETE /sources/<id>", http.StatusMethodNotAllowed)
	}
}
