package centrace

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cendev/internal/faults"
	"cendev/internal/middlebox"
	"cendev/internal/simnet"
	"cendev/internal/topology"
	"cendev/internal/wire"
)

// TestCampaignResetsDeviceState is the regression test for stateful
// flow-tracking leaking across independent targets: a device with a huge
// residual window flags the client↔server pair while the first target is
// measured, and without a reset the second target's control traceroute is
// eaten by that residual state.
func TestCampaignResetsDeviceState(t *testing.T) {
	build := func() (*simnet.Network, *topology.Host, *topology.Host) {
		n, client, server := buildNet(t)
		dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, n.Graph.Router("r3").Addr)
		dev.ResidualWindow = 1000 * time.Hour // never forgets on its own
		n.AttachDevice("r2", "r3", dev)
		return n, client, server
	}

	// First, establish the hazard: back-to-back Probers without a reset.
	n, client, server := build()
	first := New(n, client, server, cfg()).Run()
	if !first.Blocked {
		t.Fatal("setup: first target should be blocked")
	}
	open := cfg()
	open.TestDomain = "www.open-other.example"
	second := New(n, client, server, open).Run()
	if second.Valid {
		t.Fatal("setup: residual state should corrupt the follow-up measurement — test premise broken")
	}

	// The campaign resets device state between targets, so the same pair of
	// measurements comes out clean.
	n, client, server = build()
	results := (&Campaign{
		Net: n, Client: client,
		Base: Config{ControlDomain: controlDomain, Repetitions: 3},
	}).Run([]Target{
		{Endpoint: server, Domain: blockedDomain, Protocol: HTTP},
		{Endpoint: server, Domain: "www.open-other.example", Protocol: HTTP},
	})
	if !results[0].Result.Blocked {
		t.Error("first target should still be blocked")
	}
	if !results[1].Result.Valid {
		t.Error("second target invalid: residual device state leaked across targets")
	}
	if results[1].Result.Blocked {
		t.Error("second target blocked: residual device state leaked across targets")
	}
}

// TestCampaignPanicRecovery: a target that blows up mid-measurement (nil
// endpoint → nil dereference) must yield an error-bearing CampaignResult
// while the remaining targets still run.
func TestCampaignPanicRecovery(t *testing.T) {
	n, client, server := buildNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, n.Graph.Router("r3").Addr)
	n.AttachDevice("r2", "r3", dev)

	var progress int
	results := (&Campaign{
		Net: n, Client: client,
		Base:     Config{ControlDomain: controlDomain, Repetitions: 3},
		Progress: func(done, total int, r CampaignResult) { progress = done },
	}).Run([]Target{
		{Endpoint: server, Domain: blockedDomain, Protocol: HTTP},
		{Endpoint: nil, Domain: blockedDomain, Protocol: HTTP, Label: "bad"},
		{Endpoint: server, Domain: "www.open-other.example", Protocol: HTTP},
	})
	if progress != 3 {
		t.Errorf("progress = %d, want 3 (every target resolved)", progress)
	}
	if results[1].Err == nil || !strings.Contains(results[1].Err.Error(), "panicked") {
		t.Errorf("panicking target: Err = %v, want recovered panic", results[1].Err)
	}
	if results[1].Result != nil {
		t.Error("panicking target should carry no Result")
	}
	if !results[1].Failed() {
		t.Error("panicking target should report Failed")
	}
	// The targets around the panic completed normally.
	if results[0].Result == nil || !results[0].Result.Blocked {
		t.Error("target before the panic lost")
	}
	if results[2].Result == nil || !results[2].Result.Valid || results[2].Result.Blocked {
		t.Error("target after the panic lost")
	}
}

// TestCampaignRetryFailedPasses: a target measured during a network outage
// (blackhole on the client access link) fails its first pass and succeeds
// when the retry pass comes around after the outage window closes.
func TestCampaignRetryFailedPasses(t *testing.T) {
	build := func(passes int) CampaignResult {
		n, client, server := buildNet(t)
		// Pass 1 runs entirely inside the outage (it ends around t≈2280s
		// virtual with 1 repetition and no per-probe retries); pass 2 starts
		// still inside but outlives it.
		n.SetFaults(faults.NewEngine(1).AddLink("@client", "r1",
			faults.Blackhole(0, 41*time.Minute)))
		var progress int
		results := (&Campaign{
			Net: n, Client: client,
			Base:              Config{ControlDomain: controlDomain, Repetitions: 1, Retries: -1},
			RetryFailedPasses: passes,
			Progress:          func(done, total int, r CampaignResult) { progress = done },
		}).Run([]Target{{Endpoint: server, Domain: controlDomain, Protocol: HTTP}})
		if progress != 1 {
			t.Errorf("progress = %d, want 1", progress)
		}
		return results[0]
	}
	if r := build(0); !r.Failed() {
		t.Error("without retry passes the outage-window target should fail")
	}
	if r := build(1); r.Failed() {
		t.Errorf("retry pass should succeed after the outage (err=%v valid=%v)",
			r.Err, r.Result != nil && r.Result.Valid)
	}
}

// TestCampaignJournalResume: a journaled campaign's results are restored on
// a later run instead of re-measured — proven by resuming against a network
// with no device at all and still seeing the blocked verdicts.
func TestCampaignJournalResume(t *testing.T) {
	var buf bytes.Buffer
	n, client, server := buildNet(t)
	dev := middlebox.NewDevice("d", middlebox.VendorCisco, []string{blockedDomain}, n.Graph.Router("r3").Addr)
	n.AttachDevice("r2", "r3", dev)
	targets := []Target{
		{Endpoint: server, Domain: blockedDomain, Protocol: HTTP, Label: "KZ"},
		{Endpoint: server, Domain: blockedDomain, Protocol: HTTPS, Label: "KZ"},
	}
	j := NewJournal(&buf)
	first := (&Campaign{
		Net: n, Client: client,
		Base:    Config{ControlDomain: controlDomain, Repetitions: 3},
		Journal: j,
	}).Run(targets)
	if len(Blocked(first)) != 2 {
		t.Fatalf("setup: want 2 blocked results, got %d", len(Blocked(first)))
	}
	if j.Err() != nil {
		t.Fatalf("journal error: %v", j.Err())
	}
	if j.Len() != 2 {
		t.Fatalf("journal entries = %d, want 2", j.Len())
	}

	// Resume on a deviceless network: only restored results can be blocked.
	n2, client2, server2 := buildNet(t)
	j2, err := ResumeJournal(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	targets2 := []Target{
		{Endpoint: server2, Domain: blockedDomain, Protocol: HTTP, Label: "KZ"},
		{Endpoint: server2, Domain: blockedDomain, Protocol: HTTPS, Label: "KZ"},
	}
	var progress int
	second := (&Campaign{
		Net: n2, Client: client2,
		Base:     Config{ControlDomain: controlDomain, Repetitions: 3},
		Journal:  j2,
		Progress: func(done, total int, r CampaignResult) { progress = done },
	}).Run(targets2)
	if progress != 2 {
		t.Errorf("progress = %d, want 2 (both restored)", progress)
	}
	if len(Blocked(second)) != 2 {
		t.Errorf("restored results lost the blocked verdicts: %d blocked", len(Blocked(second)))
	}
}

func TestJournalTornTrailingLine(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Record(CampaignResult{Target: Target{Domain: "a.example", Protocol: HTTP}})
	j.Record(CampaignResult{Target: Target{Domain: "b.example", Protocol: HTTP}})
	// The crash artifact: a partially written final line.
	buf.WriteString(`{"key":"c.exampl`)
	j2, err := ResumeJournal(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatalf("torn trailing line should be tolerated: %v", err)
	}
	if j2.Len() != 2 {
		t.Errorf("entries = %d, want 2 (torn line re-measured)", j2.Len())
	}
	if w := j2.Warnings(); len(w) != 1 {
		t.Errorf("warnings = %v, want exactly one for the torn line", w)
	}
}

// TestJournalTornSegmentMidFile: a record torn in the middle of the
// journal (write reordering around a crash) is skipped with a warning;
// every record around it is still restored — the resume must not fail.
func TestJournalTornSegmentMidFile(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	tgtA := Target{Domain: "a.example", Protocol: HTTP}
	tgtB := Target{Domain: "b.example", Protocol: HTTPS}
	j.Record(CampaignResult{Target: tgtA})
	// The torn segment: a stretch of non-frame bytes where a record
	// should be.
	buf.WriteString(`{"key":"b.exa` + "\n")
	j.Record(CampaignResult{Target: tgtB})

	j2, err := ResumeJournal(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatalf("mid-file torn segment should be skipped, not fatal: %v", err)
	}
	if j2.Len() != 2 {
		t.Errorf("entries = %d, want 2 (records around the tear restored)", j2.Len())
	}
	for _, tgt := range []Target{tgtA, tgtB} {
		if _, ok := j2.Lookup(tgt); !ok {
			t.Errorf("target %s lost around the torn segment", tgt.Key())
		}
	}
	w := j2.Warnings()
	if len(w) != 1 {
		t.Fatalf("warnings = %v, want exactly one for the torn segment", w)
	}
	if !strings.Contains(w[0], "garbage") {
		t.Errorf("warning should describe the skipped region: %q", w[0])
	}
	if _, torn := j2.Torn(); torn {
		t.Error("interior tear misreported as a torn tail")
	}
}

// TestOpenJournalFileTornTailAppend: appending to a journal whose final
// record was torn by a crash must not glue the new record onto the torn
// tail — OpenJournalFile truncates back to the last frame boundary, so
// the surviving record and the new one both outlive the next resume.
func TestOpenJournalFileTornTailAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.journal")
	var buf bytes.Buffer
	NewJournal(&buf).Record(CampaignResult{Target: Target{Domain: "a.example", Protocol: HTTP}})
	whole := buf.Len()
	NewJournal(&buf).Record(CampaignResult{Target: Target{Domain: "b.example", Protocol: HTTP}})
	torn := buf.Bytes()[:whole+(buf.Len()-whole)/2] // second frame cut mid-write
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	j, f, err := OpenJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Fatalf("restored %d entries, want 1", j.Len())
	}
	var truncated bool
	for _, w := range j.Warnings() {
		if strings.Contains(w, "truncated torn tail") {
			truncated = true
		}
	}
	if !truncated {
		t.Fatalf("warnings = %v, want a torn-tail truncation", j.Warnings())
	}
	tgtC := Target{Domain: "c.example", Protocol: HTTPS}
	j.Record(CampaignResult{Target: tgtC})
	if err := j.Err(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, f2, err := OpenJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if j2.Len() != 2 {
		t.Fatalf("after append past torn tail: %d entries, want 2", j2.Len())
	}
	if _, ok := j2.Lookup(tgtC); !ok {
		t.Error("record appended after a torn tail was lost")
	}
	if len(j2.Warnings()) != 0 {
		t.Errorf("warnings = %v, want none (the tear was repaired on the first open)", j2.Warnings())
	}
}

// TestOpenJournalFileRefusesJSONL: a JSON-lines journal from an earlier
// version is refused with an error naming the file, and the file is left
// byte-for-byte as it was — not truncated as a tear at byte 0.
func TestOpenJournalFileRefusesJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "campaign.jsonl")
	old := []byte(`{"key":"a.example|http","domain":"a.example","protocol":"http"}` + "\n" +
		`{"key":"b.exa`) // torn tail, no newline
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	j, f, err := OpenJournalFile(path)
	if err == nil {
		f.Close()
		t.Fatalf("JSON-lines journal opened with %d entries", j.Len())
	}
	if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name %s", err, path)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Fatalf("refused journal changed:\n  was %q\n  now %q", old, got)
	}
}

// TestOpenJournalFileMarkerPrefix: a crash tearing the very first frame
// inside its marker leaves 1–3 bytes that are a proper prefix of it. Such
// a journal is a torn binary journal, not a foreign file: it opens, is
// truncated to empty, and takes appends. When a short write tore the
// marker and later records were appended behind it, the journal opens
// too, and the records behind the tear are restored.
func TestOpenJournalFileMarkerPrefix(t *testing.T) {
	for n := 1; n < len(wire.Marker); n++ {
		path := filepath.Join(t.TempDir(), "campaign.journal")
		if err := os.WriteFile(path, wire.Marker[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		j, f, err := OpenJournalFile(path)
		if err != nil {
			t.Fatalf("%d-byte marker prefix: %v", n, err)
		}
		if j.Len() != 0 {
			t.Fatalf("%d-byte marker prefix: %d entries, want 0", n, j.Len())
		}
		if fi, err := os.Stat(path); err != nil || fi.Size() != 0 {
			t.Fatalf("%d-byte marker prefix not truncated to 0: %v %v", n, fi.Size(), err)
		}
		tgt := Target{Domain: "a.example", Protocol: HTTP}
		j.Record(CampaignResult{Target: tgt})
		if err := j.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		j2, f2, err := OpenJournalFile(path)
		if err != nil {
			t.Fatal(err)
		}
		f2.Close()
		if _, ok := j2.Lookup(tgt); !ok || j2.Len() != 1 || len(j2.Warnings()) != 0 {
			t.Fatalf("%d-byte marker prefix: append lost or unclean (entries %d, warnings %q)",
				n, j2.Len(), j2.Warnings())
		}

		// The same tear with a record appended behind it.
		var buf bytes.Buffer
		buf.Write(wire.Marker[:n])
		NewJournal(&buf).Record(CampaignResult{Target: tgt})
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		j3, f3, err := OpenJournalFile(path)
		if err != nil {
			t.Fatalf("%d-byte marker prefix before a record: %v", n, err)
		}
		f3.Close()
		if _, ok := j3.Lookup(tgt); !ok || j3.Len() != 1 {
			t.Fatalf("%d-byte marker prefix before a record: record lost (entries %d, warnings %q)",
				n, j3.Len(), j3.Warnings())
		}
	}
}

func TestJournalErrorEntries(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	tgt := Target{Domain: "x.example", Protocol: HTTP}
	j.Record(CampaignResult{Target: tgt, Err: errFake})
	j2, err := ResumeJournal(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	cr, ok := j2.Lookup(tgt)
	if !ok {
		t.Fatal("error entry not restored")
	}
	if cr.Err == nil || cr.Err.Error() != "boom" {
		t.Errorf("restored Err = %v, want boom", cr.Err)
	}
	if !cr.Failed() {
		t.Error("restored error entry should report Failed")
	}
}

var errFake = errFakeType{}

type errFakeType struct{}

func (errFakeType) Error() string { return "boom" }
