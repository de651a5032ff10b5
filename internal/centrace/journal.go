package centrace

// Campaign checkpoint/resume: a Journal is an append-only log of resolved
// targets, one length-prefixed binary frame per record (internal/wire;
// DESIGN.md §14). A campaign given a journal records each target as it
// resolves and, on a later run over the same target list, restores
// recorded results instead of re-measuring — so a crashed or interrupted
// collection picks up where it left off, the way the paper's multi-week
// measurement campaigns had to.
//
// Binary frames are the only journal format. A non-empty journal must
// start with the frame marker, or with a proper prefix of it (a first
// frame torn mid-marker; see wire.Framed); anything else, such as a
// JSON-lines journal from an earlier version, is refused and left
// untouched. ExportJSON renders the entries as the JSON-lines debug view.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"cendev/internal/vfs"
	"cendev/internal/wire"
)

// journalEntry is the on-disk form of one resolved target.
type journalEntry struct {
	Key      string  `json:"key"`
	Endpoint string  `json:"endpoint"`
	Domain   string  `json:"domain"`
	Protocol string  `json:"protocol"`
	Label    string  `json:"label,omitempty"`
	Error    string  `json:"error,omitempty"`
	Result   *Result `json:"result,omitempty"`
}

// Journal is a campaign results log supporting checkpoint and resume.
// Journals are safe for concurrent use: parallel campaign workers resolve
// targets from many goroutines, so the entry map, the writer, and the
// encoding scratch buffers are guarded by a mutex — each entry reaches
// the log as one uninterleaved frame.
type Journal struct {
	mu       sync.Mutex
	entries  map[string]journalEntry
	w        io.Writer
	err      error
	warnings []string
	// recBuf/encBuf are the append path's scratch buffers (record payload
	// and framed record); they grow to the high-water record size and are
	// reused, so steady-state appends do not allocate. Guarded by mu.
	recBuf, encBuf []byte
	// tornAt/torn report a torn final frame found during resume: the
	// offset to truncate back to so the next append starts on a clean
	// frame boundary. OpenJournalFileFS performs the truncation.
	tornAt int64
	torn   bool
}

// NewJournal returns an empty journal appending entries to w.
func NewJournal(w io.Writer) *Journal {
	return &Journal{entries: make(map[string]journalEntry), w: w}
}

// ResumeJournal loads previously recorded entries from r and appends new
// entries to w. Either may be nil: a nil r resumes nothing, a nil w
// records in memory only.
//
// A record that fails to parse — the truncated final record a crash
// mid-Record leaves behind, or an interior record torn by a filesystem
// that reordered writes around a power cut — is skipped with a warning
// (see Warnings) instead of failing the whole resume: every parseable
// record is still restored, and the skipped target is simply
// re-measured. Only an I/O error reading the journal, or a journal that
// is not a frame stream (see the package comment), aborts the resume;
// it then returns no journal.
func ResumeJournal(r io.Reader, w io.Writer) (*Journal, error) {
	j := NewJournal(w)
	if r == nil {
		return j, nil
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("centrace: reading journal: %w", err)
	}
	if len(raw) == 0 {
		return j, nil
	}
	if !wire.Framed(raw) {
		return nil, errors.New("centrace: journal is not a binary frame stream (a JSON-lines journal from an earlier version?)")
	}
	rd := wire.NewReader(raw)
	for {
		payload, ok := rd.Next()
		if !ok {
			break
		}
		e, err := decodeJournalEntry(payload)
		if err != nil {
			j.warnings = append(j.warnings, fmt.Sprintf(
				"centrace: journal: skipping undecodable record: %v", err))
			continue
		}
		j.entries[e.Key] = e
	}
	for _, w := range rd.Warnings() {
		j.warnings = append(j.warnings, "centrace: journal: "+w)
	}
	j.tornAt, j.torn = rd.Torn()
	return j, nil
}

// Warnings returns the resume-time warnings: one per skipped stretch of
// damaged bytes or undecodable record, plus any torn-tail repair.
// Callers surface them so a silently shrinking journal does not go
// unnoticed.
func (j *Journal) Warnings() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]string(nil), j.warnings...)
}

// OpenJournalFile opens (creating if needed) a journal file on the real
// filesystem. See OpenJournalFileFS.
func OpenJournalFile(path string) (*Journal, vfs.File, error) {
	return OpenJournalFileFS(vfs.OS(), path)
}

// OpenJournalFileFS opens (creating if needed) a journal file, loads its
// entries, and positions it for appending. The caller owns closing the
// returned file. A journal that is not a frame stream is refused with an
// error naming path, and the file is left as it was. All I/O goes
// through fsys so the crash matrix can run resume against an
// injected-fault filesystem.
func OpenJournalFileFS(fsys vfs.FS, path string) (*Journal, vfs.File, error) {
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, err
	}
	j, err := ResumeJournal(f, f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	// A crash mid-Record leaves a torn tail: cut it back to the last good
	// frame boundary so the next append starts clean (the dropped target
	// is simply re-measured).
	if _, torn := j.Torn(); torn {
		if err := fsys.Truncate(path, j.tornAt); err != nil {
			f.Close()
			return nil, nil, err
		}
		j.warnings = append(j.warnings, fmt.Sprintf(
			"centrace: journal: truncated torn tail at byte %d", j.tornAt))
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, err
	}
	return j, f, nil
}

// Torn reports whether resume found a torn final frame, and the
// offset of the last good frame boundary. OpenJournalFileFS uses it to
// repair the file; callers resuming from a bare reader can use it to do
// the same.
func (j *Journal) Torn() (truncateTo int64, torn bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.tornAt, j.torn
}

// Lookup returns the recorded result for a target, if any.
func (j *Journal) Lookup(t Target) (CampaignResult, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.entries[t.Key()]
	if !ok {
		return CampaignResult{}, false
	}
	cr := CampaignResult{Target: t, Result: e.Result}
	if e.Error != "" {
		cr.Err = errors.New(e.Error)
	}
	return cr, true
}

// Record checkpoints one resolved target. Write failures are remembered
// (see Err) rather than aborting the campaign: losing a checkpoint is
// strictly better than losing the measurement.
func (j *Journal) Record(cr CampaignResult) {
	e := journalEntry{
		Key:      cr.Target.Key(),
		Domain:   cr.Target.Domain,
		Protocol: cr.Target.Protocol.String(),
		Label:    cr.Target.Label,
		Result:   cr.Result,
	}
	if cr.Target.Endpoint != nil {
		e.Endpoint = cr.Target.Endpoint.ID
	}
	if cr.Err != nil {
		e.Error = cr.Err.Error()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.entries[e.Key] = e
	if j.w == nil {
		return
	}
	j.recBuf = appendJournalEntry(j.recBuf[:0], &e)
	j.encBuf = wire.AppendFrame(j.encBuf[:0], j.recBuf)
	if _, err := j.w.Write(j.encBuf); err != nil {
		j.err = fmt.Errorf("centrace: journal write: %w", err)
	}
}

// ExportJSON writes the journal's entries as JSON lines in sorted key
// order — the debug/export view of the binary format.
func (j *Journal) ExportJSON(w io.Writer) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	keys := make([]string, 0, len(j.entries))
	for k := range j.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bw := bufio.NewWriter(w)
	for _, k := range keys {
		e := j.entries[k]
		raw, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("centrace: journal export: %w", err)
		}
		bw.Write(raw)
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// Len returns the number of recorded entries.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.entries)
}

// Err returns the first write error the journal swallowed, if any.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}
