package server

import (
	"fmt"
	"net/http"

	"sprofile"
)

// exportEntry is the wire form of one tracked object in an export document.
type exportEntry struct {
	Object    string `json:"object"`
	Frequency int64  `json:"frequency"`
}

// exportDoc is the full state document produced by GET /v1/export and
// consumed by POST /v1/import.
type exportDoc struct {
	Capacity int           `json:"capacity"`
	Objects  []exportEntry `json:"objects"`
}

// registerExportRoutes adds the export/import endpoints; called from
// routes().
func (s *Server) registerExportRoutes() {
	// Export and import stream whole-profile NDJSON bodies, so neither is
	// deadline-wrapped (http.TimeoutHandler would buffer the export).
	s.mux.HandleFunc("/v1/export", s.handleExport)
	s.mux.HandleFunc("/v1/import", s.handleImport)
}

// handleExport dumps every tracked object and its frequency. The document can
// be re-imported into a fresh server to warm-start it after a restart. The
// frequencies come from one consistent point-in-time snapshot of the sharded
// profile; the id→key translation happens afterwards, so an object recycled
// mid-export can (rarely) be skipped — re-export during a quiet moment for
// an exact backup.
func (s *Server) handleExport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	doc := exportDoc{Capacity: s.keyed().Cap()}
	var p sprofile.Reader = s.keyed().Profile()
	if snapper, ok := p.(sprofile.Snapshotter); ok {
		snap, err := snapper.Snapshot()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "snapshotting profile: %v", err)
			return
		}
		p = snap
	}
	// Walk ranks from the most frequent downwards; stop once frequencies hit
	// zero (idle and unused slots contribute nothing to the export).
	for rank := 1; rank <= p.Cap(); rank++ {
		entry, err := p.KthLargest(rank)
		if err != nil || entry.Frequency <= 0 {
			break
		}
		key, tracked := s.keyed().KeyOf(entry.Object)
		if !tracked {
			continue
		}
		doc.Objects = append(doc.Objects, exportEntry{Object: key, Frequency: entry.Frequency})
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleImport replays an export document into the server's profile. Existing
// state is kept; imported counts add on top of it, so import into a fresh
// server for an exact restore.
func (s *Server) handleImport(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.rejectReadOnly(w) || s.rejectDegraded(w) {
		return
	}
	var doc exportDoc
	if err := strictDecode(r.Body, &doc); err != nil {
		writeError(w, http.StatusBadRequest, "invalid import document: %v", err)
		return
	}
	imported := 0
	for _, e := range doc.Objects {
		if e.Object == "" {
			writeError(w, http.StatusBadRequest, "import entry %d has an empty object", imported)
			return
		}
		if e.Frequency < 0 {
			writeError(w, http.StatusBadRequest, "import entry %q has negative frequency %d", e.Object, e.Frequency)
			return
		}
		for i := int64(0); i < e.Frequency; i++ {
			if err := s.keyed().Add(e.Object); err != nil {
				writeProfileError(w, fmt.Errorf("importing %q: %w", e.Object, err))
				return
			}
		}
		imported++
	}
	if s.async != nil {
		// An import must report capacity exhaustion synchronously, so drain
		// the plane and surface any deferred apply error here rather than on
		// a later flush.
		if err := s.async.Flush(); err != nil {
			writeProfileError(w, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]int{"imported": imported})
}
