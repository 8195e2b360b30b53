package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"gsim/internal/leakcheck"
)

// The benchmark's three request shapes: the {poke, step 16, peek} body of
// nine requests in ten, the peek-only tenth, and a bare step.
const (
	opsPokeStepPeek = `{"ops":[{"op":"poke","name":"en","value":"h1"},{"op":"step","n":16},{"op":"peek","name":"out"}]}`
	opsPeek         = `{"ops":[{"op":"peek","name":"out"}]}`
	opsStep         = `{"ops":[{"op":"step"}]}`
)

// encodeOpsStd is the reference the append-style encoder must match byte for
// byte: what the handler wrote before it had its own encoder.
func encodeOpsStd(t testing.TB, results []OpResult) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(OpsResponse{Results: results}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// opsRequest builds a POST to the session's ops endpoint. An unsized request
// hides its length from the handler, as a chunked upload would, and takes the
// streaming decode; a sized one takes the pooled buffer.
func opsRequest(sid string, body []byte, sized bool) *http.Request {
	var r io.Reader = bytes.NewReader(body)
	if !sized {
		r = io.MultiReader(r)
	}
	return httptest.NewRequest("POST", "/v1/sessions/"+sid+"/ops", r)
}

// FuzzOpsJSON feeds arbitrary bytes to POST /v1/sessions/{id}/ops on both
// decode paths. The handler may accept (2xx) or refuse (4xx) and nothing
// else, and never panics (a panic in the session would poison it: 500). A
// refusal that completed no op leaves cycle count and state image untouched.
// An accepted reply is exactly what encoding/json writes for it — and so is
// the encoder's output for results carrying the input's own strings, which
// reach escapes and invalid UTF-8 that a reply from a real design cannot.
func FuzzOpsJSON(f *testing.F) {
	for _, seed := range []string{
		opsPokeStepPeek, opsPeek, opsStep,
		`{"ops":[{"op":"peek","name":"<out>& \"\\\n "}]}`,
		"{\"ops\":[{\"op\":\"pe\xffek\",\"name\":\"\xc3\x28\",\"value\":\"\xed\xa0\x80\"}]}",
		`{"ops":[{"op":"peek","name":"out","lane":0},{"op":"park","lane":1},{"op":"step","lane":0}]}`,
		`{"ops":[{"op":"step","n":9223372036854775807},{"op":"step","n":9223372036854775807}]}`,
		`{"ops":[{"op":"step","n":3},{"op":"peek","name":"nope"}]}`,
		`{"ops":[{"op":"reset"}]} trailing`,
		`{"ops":null}`, `{}`, `[]`, ``, `{"ops":[{"op":"step"}`,
	} {
		f.Add([]byte(seed))
	}
	m := NewManagerLimits(Limits{MaxStepsPerBatch: 1 << 12})
	f.Cleanup(func() { _ = m.Drain(context.Background()) })
	h := m.Handler()
	src := readDesign(f, "counter.fir")
	var sessions [2]*Session
	for i := range sessions {
		s, err := m.CreateSession(src, SessionSpec{})
		if err != nil {
			f.Fatal(err)
		}
		sessions[i] = s
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for i, s := range sessions {
			cycles := s.Cycles()
			image, err := s.SnapshotLane(0)
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, opsRequest(s.ID, data, i == 0))
			reply := rec.Body.Bytes()
			switch rec.Code / 100 {
			case 2:
				var out OpsResponse
				if err := json.Unmarshal(reply, &out); err != nil {
					t.Fatalf("accepted batch %q: undecodable reply %q: %v", data, reply, err)
				}
				if want := encodeOpsStd(t, out.Results); !bytes.Equal(reply, want) {
					t.Fatalf("accepted batch %q: reply %q, encoding/json writes %q", data, reply, want)
				}
			case 4:
				var out struct{ Results []OpResult }
				_ = json.Unmarshal(reply, &out) // a refusal before Apply carries no results
				if len(out.Results) > 0 {
					break // ops before the failing one ran, as documented
				}
				after, err := s.SnapshotLane(0)
				if err != nil {
					t.Fatal(err)
				}
				if s.Cycles() != cycles || !bytes.Equal(after, image) {
					t.Fatalf("refused batch %q (status %d) moved the session: cycles %d -> %d", data, rec.Code, cycles, s.Cycles())
				}
			default:
				t.Fatalf("batch %q: status %d, want 2xx or 4xx; reply %q", data, rec.Code, reply)
			}
		}

		// The encoder alone, on results made of the input's strings.
		results := []OpResult{{Op: string(data), Error: string(data)}}
		var req OpsRequest
		if json.Unmarshal(data, &req) == nil {
			for _, op := range req.Ops {
				results = append(results, OpResult{Op: op.Op, Name: op.Name, Value: op.Value, Cycles: uint64(op.N), Lane: op.Lane, Error: op.Name})
			}
		}
		for _, rs := range [][]OpResult{results, results[:0], nil} {
			if got, want := appendOpsResponse(nil, rs), encodeOpsStd(t, rs); !bytes.Equal(got, want) {
				t.Fatalf("appendOpsResponse(%+v) = %q, encoding/json writes %q", rs, got, want)
			}
		}
	})
}

// TestOpsHandlerAllocs pins the heap allocations of one ops request through
// the whole handler chain (middleware, mux, decode, Apply, encode) at the
// measured figure, so a regression in the path shows as a count, not as a
// slower benchmark. What the harness itself allocates per call (request,
// recorder) is measured against an empty handler and taken off.
func TestOpsHandlerAllocs(t *testing.T) {
	const want = 26
	if leakcheck.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	m := NewManager()
	defer m.Drain(context.Background())
	s, err := m.CreateSession(readDesign(t, "counter.fir"), SessionSpec{})
	if err != nil {
		t.Fatal(err)
	}
	body := strings.NewReader(opsPokeStepPeek)
	var rec *httptest.ResponseRecorder
	allocs := func(h http.Handler) float64 {
		return testing.AllocsPerRun(200, func() {
			body.Reset(opsPokeStepPeek)
			rec = httptest.NewRecorder()
			req := httptest.NewRequest("POST", "/v1/sessions/"+s.ID+"/ops", body)
			req.Header.Set(RequestIDHeader, "allocs") // else the middleware numbers one, at a length-dependent cost
			h.ServeHTTP(rec, req)
		})
	}
	harness := allocs(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write(nil) }))
	got := allocs(m.Handler()) - harness
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"value":"8'h`) {
		t.Fatalf("ops: status %d, reply %q", rec.Code, rec.Body)
	}
	if got != want {
		t.Errorf("ops handler: %v allocations per request (harness %v taken off), pinned at %d", got, harness, want)
	}
}
