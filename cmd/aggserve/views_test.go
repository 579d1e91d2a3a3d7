package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"memagg"
)

func doWithHeader(t *testing.T, srv *server, method, target, key, val string) *httptest.ResponseRecorder {
	t.Helper()
	r := httptest.NewRequest(method, target, nil)
	r.Header.Set(key, val)
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, r)
	return w
}

// TestViewCRUD walks the /v1/views lifecycle: register, list, read back,
// reject duplicates and bad specs, drop, and 404 after the drop.
func TestViewCRUD(t *testing.T) {
	srv, _ := newTestServer(t)

	w := do(t, srv, http.MethodPost, "/v1/views",
		`{"name":"top","query":"q1","pane_rows":8,"panes":2,"sliding":true}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("register = %d: %s", w.Code, w.Body)
	}

	// Duplicate name.
	w = do(t, srv, http.MethodPost, "/v1/views",
		`{"name":"top","query":"q1","pane_rows":8,"panes":2}`)
	if w.Code != http.StatusConflict {
		t.Fatalf("duplicate register = %d, want 409: %s", w.Code, w.Body)
	}
	// Malformed spec: no panes.
	w = do(t, srv, http.MethodPost, "/v1/views", `{"name":"bad","query":"q1","pane_rows":8}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad spec = %d, want 400: %s", w.Code, w.Body)
	}
	// Unknown query spelling.
	w = do(t, srv, http.MethodPost, "/v1/views",
		`{"name":"bad","query":"q99","pane_rows":8,"panes":1}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown query = %d, want 400: %s", w.Code, w.Body)
	}

	w = do(t, srv, http.MethodGet, "/v1/views", "")
	if w.Code != http.StatusOK {
		t.Fatalf("list = %d: %s", w.Code, w.Body)
	}
	var list struct {
		Views []struct {
			Name  string `json:"name"`
			Query string `json:"query"`
		} `json:"views"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Views) != 1 || list.Views[0].Name != "top" || list.Views[0].Query != "q1" {
		t.Fatalf("list = %+v, want exactly [top q1]", list.Views)
	}

	if w = do(t, srv, http.MethodGet, "/v1/views/top", ""); w.Code != http.StatusOK {
		t.Fatalf("get item = %d: %s", w.Code, w.Body)
	}
	if w = do(t, srv, http.MethodGet, "/v1/views/nope", ""); w.Code != http.StatusNotFound {
		t.Fatalf("get unknown = %d, want 404: %s", w.Code, w.Body)
	}
	if w = do(t, srv, http.MethodDelete, "/v1/views/top", ""); w.Code != http.StatusOK {
		t.Fatalf("delete = %d: %s", w.Code, w.Body)
	}
	if w = do(t, srv, http.MethodDelete, "/v1/views/top", ""); w.Code != http.StatusNotFound {
		t.Fatalf("delete again = %d, want 404: %s", w.Code, w.Body)
	}
	if w = do(t, srv, http.MethodGet, "/v1/views/top/result", ""); w.Code != http.StatusNotFound {
		t.Fatalf("result after delete = %d, want 404: %s", w.Code, w.Body)
	}
}

// TestViewHolisticGate: a quantile view on a non-holistic stream is a
// 422 — the query parses, the stream just can't serve it.
func TestViewHolisticGate(t *testing.T) {
	s := memagg.NewStream(memagg.StreamOptions{Shards: 1, SealRows: 4})
	t.Cleanup(func() { _ = s.Close() })
	srv := newServer(s)
	w := do(t, srv, http.MethodPost, "/v1/views",
		`{"name":"p95","query":"quantile","p":0.95,"pane_rows":8,"panes":1}`)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("holistic view on distributive stream = %d, want 422: %s", w.Code, w.Body)
	}
}

// TestViewResultETag ingests through the view's window and checks the
// result endpoint's conditional-read contract: an unchanged view answers
// If-None-Match with 304, a seal invalidates the tag.
func TestViewResultETag(t *testing.T) {
	srv, _ := newTestServer(t)

	w := do(t, srv, http.MethodPost, "/v1/views",
		`{"name":"counts","query":"q1","pane_rows":8,"panes":2,"sliding":true}`)
	if w.Code != http.StatusCreated {
		t.Fatalf("register = %d: %s", w.Code, w.Body)
	}
	if w = do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[1,2,1,3],"vals":[10,20,30,40]}`); w.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body)
	}
	if w = do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
		t.Fatalf("flush = %d: %s", w.Code, w.Body)
	}

	w = do(t, srv, http.MethodGet, "/v1/views/counts/result", "")
	if w.Code != http.StatusOK {
		t.Fatalf("result = %d: %s", w.Code, w.Body)
	}
	etag := w.Header().Get("ETag")
	if etag == "" {
		t.Fatal("result response carries no ETag")
	}
	var res struct {
		Rows      uint64 `json:"rows"`
		WindowEnd uint64 `json:"window_end"`
		Value     []struct {
			Key   uint64 `json:"Key"`
			Count uint64 `json:"Count"`
		} `json:"value"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Rows != 4 || len(res.Value) != 3 {
		t.Fatalf("result = %+v, want 4 rows over 3 groups", res)
	}

	// Unchanged view: conditional read is a 304 with no body.
	r := doWithHeader(t, srv, http.MethodGet, "/v1/views/counts/result", "If-None-Match", etag)
	if r.Code != http.StatusNotModified {
		t.Fatalf("conditional result = %d, want 304: %s", r.Code, r.Body)
	}

	// A new seal bumps the version: the old tag must miss.
	if w = do(t, srv, http.MethodPost, "/v1/ingest", `{"keys":[7,7,7,7],"vals":[1,2,3,4]}`); w.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", w.Code, w.Body)
	}
	if w = do(t, srv, http.MethodPost, "/v1/flush", ""); w.Code != http.StatusOK {
		t.Fatalf("flush = %d: %s", w.Code, w.Body)
	}
	r = doWithHeader(t, srv, http.MethodGet, "/v1/views/counts/result", "If-None-Match", etag)
	if r.Code != http.StatusOK {
		t.Fatalf("stale conditional result = %d, want 200: %s", r.Code, r.Body)
	}
	if r.Header().Get("ETag") == etag {
		t.Fatal("ETag did not change after a seal")
	}
}

// TestViewReregisterETag: a view dropped and registered again under its
// name at the same watermark is a different registration, so the old
// registration's tag must not answer 304 and its cached body must not be
// served for the new query.
func TestViewReregisterETag(t *testing.T) {
	srv, _ := newTestServer(t)
	ingestFlush(t, srv, `{"keys":[1,2,1,3],"vals":[10,20,30,40]}`)
	register := func(query string) {
		t.Helper()
		w := do(t, srv, http.MethodPost, "/v1/views", `{"name":"v","query":"`+query+`","pane_rows":8,"panes":2}`)
		if w.Code != http.StatusCreated {
			t.Fatalf("register %s = %d: %s", query, w.Code, w.Body)
		}
	}
	register("q1")
	w := do(t, srv, http.MethodGet, "/v1/views/v/result", "")
	if w.Code != http.StatusOK {
		t.Fatalf("result = %d: %s", w.Code, w.Body)
	}
	etag := w.Header().Get("ETag")
	if w := do(t, srv, http.MethodDelete, "/v1/views/v", ""); w.Code != http.StatusOK {
		t.Fatalf("delete = %d: %s", w.Code, w.Body)
	}
	register("q2")

	if r := doWithHeader(t, srv, http.MethodGet, "/v1/views/v/result", "If-None-Match", etag); r.Code != http.StatusOK {
		t.Fatalf("old registration's tag %s on the new registration = %d, want 200", etag, r.Code)
	}
	w = do(t, srv, http.MethodGet, "/v1/views/v/result", "")
	var res struct {
		Query string `json:"query"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Query != "q2" || w.Header().Get("ETag") == etag {
		t.Fatalf("re-registered view answered query %q with ETag %s (old %s); want q2 under a new tag",
			res.Query, w.Header().Get("ETag"), etag)
	}
}
