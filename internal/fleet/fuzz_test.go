package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// acceptAll is a replica transport that never dials: it answers every
// request with a successful create, so whatever the router sends would home
// a session.
type acceptAll struct{}

func (acceptAll) RoundTrip(r *http.Request) (*http.Response, error) {
	return &http.Response{
		StatusCode: http.StatusCreated,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"session":"b1","design_hash":"h"}`)),
		Request:    r,
	}, nil
}

// FuzzRouterRegister feeds arbitrary bytes to POST /fleet/replicas, the
// registration a replica sends the router. Any body gets a 2xx or a 4xx and
// never a panic; an accepted registration is listed by GET /fleet under its
// URL; and a replica registered with an unparseable URL homes no session,
// even though the replica transport here accepts every create it is sent.
func FuzzRouterRegister(f *testing.F) {
	const maxBody = 4 << 10
	for _, seed := range []string{
		`{"name":"r1","url":"http://127.0.0.1:1"}`,
		`{"name":"r1","url":"http://[::1"}`,
		`{"name":"r1","url":"%zz"}`,
		`{"name":"r1","url":":8080"}`,
		`{"name":"r1","url":"http://x/%2"}`,
		`{"name":"","url":"http://x"}`,
		`{"name":"r1"}`, `{}`, `[]`, `null`, ``, `{"name":1}`,
		`{"name":"r1","url":"http://x"} trailing`,
		`{"name":"r1","url":"` + strings.Repeat("a", maxBody) + `"}`,
	} {
		f.Add([]byte(seed))
	}
	client := &http.Client{Transport: acceptAll{}}

	f.Fuzz(func(t *testing.T, body []byte) {
		rt := NewRouter(Config{MaxBodyBytes: maxBody, HTTPClient: client})
		defer rt.Close()
		h := rt.Handler()
		serve := func(method, path, body string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			return rec
		}
		reg := serve("POST", "/fleet/replicas", string(body))
		switch reg.Code / 100 {
		case 4:
			return
		case 2:
		default:
			t.Fatalf("register %q: status %d, want 2xx or 4xx", body, reg.Code)
		}
		var req RegisterRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("register %q accepted a body that does not decode: %v", body, err)
		}
		serve("POST", "/v1/sessions", `{"firrtl":"circuit x :"}`)

		view := serve("GET", "/fleet", "")
		var out struct{ Replicas []ReplicaInfo }
		if err := json.Unmarshal(view.Body.Bytes(), &out); view.Code != http.StatusOK || err != nil {
			t.Fatalf("GET /fleet: status %d, %v", view.Code, err)
		}
		if len(out.Replicas) != 1 || out.Replicas[0].Name != req.Name || out.Replicas[0].URL != req.URL {
			t.Fatalf("registered %+v, GET /fleet lists %+v", req, out.Replicas)
		}
		if _, err := url.Parse(req.URL); err != nil && out.Replicas[0].Sessions != 0 {
			t.Fatalf("unparseable URL %q (%v) homes %d sessions", req.URL, err, out.Replicas[0].Sessions)
		}
	})
}
