package main

import (
	"net/http"
	"sort"
)

// routeTable is the canonical list of /v1 routes the daemon serves. It
// exists for operators and CI, not for dispatch (which stays a hand-written
// switch in dispatch/handleMonitor): `emapsd -print-routes` prints it, the
// docs CI job greps every line into docs/API.md so the reference cannot
// silently drift, and TestRouteTableMatchesDispatch pins it against the
// actual dispatcher.
type routeInfo struct {
	method string
	path   string
	label  string // the metrics route label dispatch emits
}

var routeTable = []routeInfo{
	{http.MethodGet, "/v1/healthz", "healthz"},
	{http.MethodGet, "/v1/metrics", "metrics"},
	{http.MethodGet, "/v1/stats", "stats"},
	{http.MethodGet, "/v1/shard", "shard"},
	{http.MethodPost, "/v1/monitors", "create"},
	{http.MethodGet, "/v1/monitors", "list"},
	{http.MethodGet, "/v1/debug/requests", "debug"},
	{http.MethodGet, "/v1/monitors/{id}", "monitor"},
	{http.MethodDelete, "/v1/monitors/{id}", "delete"},
	{http.MethodPost, "/v1/monitors/{id}/estimate", "estimate"},
	{http.MethodPost, "/v1/monitors/{id}/track", "track"},
	{http.MethodPost, "/v1/monitors/{id}/govern", "govern"},
}

// handleShard reports this replica's shard assignment and the monitor IDs
// it owns — the routing table a client-side router (emapsload's multi-addr
// mode, or any proxy) needs to pin monitors to replicas. Owned IDs come
// from the registry, so a paged-out monitor is still listed.
func (s *server) handleShard(w http.ResponseWriter) {
	s.mu.Lock()
	ids := make([]string, 0, len(s.monitors))
	for id := range s.monitors {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Strings(ids)
	writeJSON(w, http.StatusOK, map[string]any{
		"shard":    s.shardIdx,
		"of":       s.shardN,
		"monitors": ids,
	})
}
