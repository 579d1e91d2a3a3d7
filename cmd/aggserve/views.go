package main

import (
	"errors"
	"net/http"
	"strconv"
	"strings"

	"memagg"
)

// Continuous-view CRUD and reads:
//
//	GET    /v1/views               list registered views
//	POST   /v1/views               register a view (a memagg.ViewSpec in JSON)
//	GET    /v1/views/{name}        one view's description
//	DELETE /v1/views/{name}        drop a view
//	GET    /v1/views/{name}/result evaluate the view's standing query
//
// Result responses carry an ETag derived from the view's registration,
// version counter and absorbed watermark, so a poller whose view has not
// absorbed a seal since its last read gets a 304 without any merge work,
// and the server answers a repeated read from its body cache.

func (srv *server) handleViews(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, map[string]any{"views": srv.stream.Views()})
	case http.MethodPost:
		var spec memagg.ViewSpec
		if !decodeJSON(w, r, &spec) {
			return
		}
		if err := srv.stream.RegisterView(spec); err != nil {
			httpError(w, viewStatus(err), err.Error())
			return
		}
		info, err := srv.stream.ViewStatus(spec.Name)
		if err != nil {
			// Registered but dropped by a concurrent DELETE before the
			// readback — report what the register call achieved.
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		// Headers set after WriteHeader are not sent: set the type first.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusCreated)
		writeJSON(w, info)
	default:
		httpError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// handleViewItem serves /v1/views/{name} and /v1/views/{name}/result.
func (srv *server) handleViewItem(w http.ResponseWriter, r *http.Request) {
	name, sub, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/v1/views/"), "/")
	if name == "" {
		httpError(w, http.StatusNotFound, "missing view name")
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		info, err := srv.stream.ViewStatus(name)
		if err != nil {
			httpError(w, viewStatus(err), err.Error())
			return
		}
		writeJSON(w, info)
	case sub == "" && r.Method == http.MethodDelete:
		if !srv.stream.DropView(name) {
			httpError(w, http.StatusNotFound, "unknown view "+strconv.Quote(name))
			return
		}
		writeJSON(w, map[string]any{"dropped": name})
	case sub == "result" && r.Method == http.MethodGet:
		srv.handleViewResult(w, r, name)
	default:
		httpError(w, http.StatusNotFound, "unknown view route")
	}
}

func (srv *server) handleViewResult(w http.ResponseWriter, r *http.Request, name string) {
	// A view result is fully determined by which registration of the name
	// it is, the view's fold/evict version and the watermark it has
	// absorbed, so that triple is the entity tag — checked before any pane
	// merge runs, and keying the body cache.
	info, err := srv.stream.ViewStatus(name)
	if err != nil {
		httpError(w, viewStatus(err), err.Error())
		return
	}
	etag := viewETag(info.Registration, info.Version, info.Watermark)
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	uri := r.URL.RequestURI()
	if body, ok := srv.bodies.get(uri, etag); ok {
		writeBody(w, etag, body)
		return
	}
	res, err := srv.stream.View(name)
	if err != nil {
		httpError(w, viewStatus(err), err.Error())
		return
	}
	// Tag with the version the result actually carries: a seal may have
	// landed between the info read and the evaluation. Should the name
	// have been dropped and registered again in between, the body lands
	// under the old registration's tag, which no later read computes.
	etag = viewETag(info.Registration, res.Version, res.WindowEnd)
	body := appendViewBody(nil, res)
	srv.bodies.put(uri, etag, body)
	writeBody(w, etag, body)
}

// viewETag renders a view result's entity tag: "cv<registration
// hex>.<version>-<watermark>".
func viewETag(registration, version, watermark uint64) string {
	return `"cv` + strconv.FormatUint(registration, 16) + "." + strconv.FormatUint(version, 10) + "-" +
		strconv.FormatUint(watermark, 10) + `"`
}

// viewStatus maps a view-API error to its HTTP status.
func viewStatus(err error) int {
	switch {
	case errors.Is(err, memagg.ErrViewExists):
		return http.StatusConflict
	case errors.Is(err, memagg.ErrUnknownView):
		return http.StatusNotFound
	case errors.Is(err, memagg.ErrUnsupportedQuery):
		return http.StatusUnprocessableEntity
	case errors.Is(err, memagg.ErrBadView):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}
