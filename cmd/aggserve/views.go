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
//	POST   /v1/views               register a view (JSON spec below)
//	GET    /v1/views/{name}        one view's description
//	DELETE /v1/views/{name}        drop a view
//	GET    /v1/views/{name}/result evaluate the view's standing query
//
// Result responses carry an ETag derived from the view's version counter
// and absorbed watermark, so a poller whose view has not absorbed a seal
// since its last read gets a 304 without any merge work — the HTTP face
// of the view's own result cache.

// viewRequest is the POST /v1/views body: the ViewSpec fields in the
// /v1/query parameter spellings.
type viewRequest struct {
	Name     string  `json:"name"`
	Query    string  `json:"query"`
	P        float64 `json:"p,omitempty"`
	Lo       uint64  `json:"lo,omitempty"`
	Hi       uint64  `json:"hi,omitempty"`
	PaneRows uint64  `json:"pane_rows"`
	Panes    int     `json:"panes"`
	Sliding  bool    `json:"sliding,omitempty"`
}

func (srv *server) handleViews(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, map[string]any{"views": srv.stream.Views()})
	case http.MethodPost:
		var req viewRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		err := srv.stream.RegisterView(memagg.ViewSpec{
			Name:     req.Name,
			Query:    req.Query,
			P:        req.P,
			Lo:       req.Lo,
			Hi:       req.Hi,
			PaneRows: req.PaneRows,
			Panes:    req.Panes,
			Sliding:  req.Sliding,
		})
		if err != nil {
			httpError(w, viewStatus(err), err.Error())
			return
		}
		info, err := srv.stream.ViewStatus(req.Name)
		if err != nil {
			// Registered but dropped by a concurrent DELETE before the
			// readback — report what the register call achieved.
			httpError(w, http.StatusConflict, err.Error())
			return
		}
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
	// A view result is fully determined by the view's fold/evict version
	// and the watermark it has absorbed, so that pair is the entity tag —
	// checked before any pane merge runs.
	info, err := srv.stream.ViewStatus(name)
	if err != nil {
		httpError(w, viewStatus(err), err.Error())
		return
	}
	etag := `"cv` + strconv.FormatUint(info.Version, 10) + "-" +
		strconv.FormatUint(info.Watermark, 10) + `"`
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.Header().Set("ETag", etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	res, err := srv.stream.View(name)
	if err != nil {
		httpError(w, viewStatus(err), err.Error())
		return
	}
	// Tag with the version the result actually carries: a seal may have
	// landed between the info read and the evaluation.
	etag = `"cv` + strconv.FormatUint(res.Version, 10) + "-" +
		strconv.FormatUint(res.WindowEnd, 10) + `"`
	w.Header().Set("ETag", etag)
	writeJSON(w, res)
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
