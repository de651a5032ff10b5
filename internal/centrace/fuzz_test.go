package centrace

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"cendev/internal/vfs"
	"cendev/internal/wire"
)

// FuzzJournalReplay drives arbitrary bytes through the journal parser.
// Whatever the input, ResumeJournal must not panic. Input that is not a
// frame stream — the JSON-lines seeds among them — must be refused with
// an error and no journal. A torn frame stream must be repairable by
// truncating to the reported boundary — the exact situation a kill -9
// mid-Record creates.
//
// The same bytes then seed a chaos filesystem with a fuzz-chosen fault
// schedule under a live record+sync workload: every checkpoint the
// journal acknowledged as durable must survive the crash+reboot.
func FuzzJournalReplay(f *testing.F) {
	f.Add([]byte(nil), int64(1), uint8(0), uint8(0))
	f.Add([]byte("\n\n"), int64(2), uint8(0), uint8(0))
	f.Add([]byte(`{"key":"az-ep-0-0|example.com|HTTP","endpoint":"az-ep-0-0","domain":"example.com","protocol":"HTTP"}`+"\n"), int64(3), uint8(4), uint8(0))
	f.Add([]byte(`{"key":"a","error":"timeout"}`+"\n"+`{"key":"b"`+"\n"), int64(4), uint8(0), uint8(6)) // torn tail
	f.Add([]byte(`{"key":"dup"}`+"\n"+`{"key":"dup","error":"later"}`+"\n"), int64(5), uint8(2), uint8(8))
	f.Add([]byte(`not json at all`+"\n"+`{"key":"after-tear"}`+"\n"), int64(6), uint8(3), uint8(3))
	// Binary seeds: a clean frame, two frames with the second torn
	// mid-write, and a frame followed by interior garbage plus another.
	entA := journalEntry{Key: "bin-a|x|http", Domain: "x", Protocol: "http"}
	entB := journalEntry{Key: "bin-b|y|https", Domain: "y", Protocol: "https", Error: "unreachable"}
	frameA := wire.AppendFrame(nil, appendJournalEntry(nil, &entA))
	frameB := wire.AppendFrame(nil, appendJournalEntry(nil, &entB))
	f.Add(append([]byte(nil), frameA...), int64(7), uint8(0), uint8(0))
	f.Add(append(append([]byte(nil), frameA...), frameB[:len(frameB)/2]...), int64(8), uint8(0), uint8(7))
	f.Add(append(append(append([]byte(nil), frameA...), "mid-file damage"...), frameB...), int64(9), uint8(5), uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, seed int64, failA, failB uint8) {
		j, err := ResumeJournal(bytes.NewReader(data), nil)
		if len(data) > 0 && data[0] != wire.Marker[0] {
			if err == nil || j != nil {
				t.Fatalf("non-frame journal %q: got journal %v, error %v; want an error and no journal", data, j != nil, err)
			}
		} else if err != nil {
			t.Fatalf("frame stream refused: %v", err)
		} else if tornAt, torn := j.Torn(); torn {
			// Repairing a torn tail by truncating to the reported boundary
			// must yield the same entries with no tear left.
			repaired := append([]byte(nil), data[:tornAt]...)
			j2, err := ResumeJournal(bytes.NewReader(repaired), nil)
			if err != nil {
				t.Fatalf("ResumeJournal on repaired journal errored: %v", err)
			}
			if j2.Len() != j.Len() {
				t.Fatalf("torn-tail repair changed entry count: %d -> %d", j.Len(), j2.Len())
			}
			if _, stillTorn := j2.Torn(); stillTorn {
				t.Fatal("journal still torn after truncating to the reported boundary")
			}
		}

		// Chaos phase: same pre-existing bytes as an on-disk journal,
		// fuzz-chosen faults under live records, then a crash.
		c := vfs.NewChaos(seed)
		c.Install("campaign.jsonl", data)
		if failA > 0 {
			c.FailOp(int(failA), vfs.ErrIO)
		}
		if failB > 0 {
			c.ShortWriteOp(int(failB))
		}
		acked := map[string]string{}
		if cj, cf, err := OpenJournalFileFS(c, "campaign.jsonl"); err == nil {
			for i := 0; i < 3; i++ {
				tgt := matrixTarget(i)
				msg := fmt.Sprintf("probe: unreachable %d", i)
				cj.Record(CampaignResult{Target: tgt, Err: errors.New(msg)})
				if cj.Err() == nil && cf.Sync() == nil {
					acked[tgt.Key()] = msg
				}
			}
			cf.Close()
		}
		c.Crash()
		c.Reboot()
		rj, rf, err := OpenJournalFileFS(c, "campaign.jsonl")
		if err != nil {
			if len(acked) > 0 {
				t.Fatalf("post-crash resume failed with %d acknowledged checkpoints at stake: %v", len(acked), err)
			}
			return
		}
		rf.Close()
		for i := 0; i < 3; i++ {
			tgt := matrixTarget(i)
			want, wasAcked := acked[tgt.Key()]
			if !wasAcked {
				continue
			}
			cr, found := rj.Lookup(tgt)
			if !found {
				t.Fatalf("acknowledged checkpoint %s lost after chaos crash (seed=%d failA=%d failB=%d)", tgt.Key(), seed, failA, failB)
			}
			if cr.Err == nil || cr.Err.Error() != want {
				t.Fatalf("checkpoint %s resumed with %v, acknowledged %q", tgt.Key(), cr.Err, want)
			}
		}
	})
}
