package serve

import (
	"encoding/json"
	"reflect"
	"testing"
)

// fullStoreRecord exercises every field of the record schema.
func fullStoreRecord() *storeRecord {
	return &storeRecord{
		Seq:    42,
		Merged: 41,
		ID:     "j-00000042",
		State:  StateDone,
		Spec: &JobSpec{
			Kind: KindCenTrace, Tenant: "ten", Priority: 2, Seed: -7,
			Client: "client-0", Endpoint: "ep-0", Domain: "blocked.example",
			Control: "control.example", Protocol: "https", Repetitions: 11,
			Workers: 4, RetryPasses: 2, Strategy: "priority", Extensions: true,
			Addrs: []string{"198.51.100.1", "198.51.100.2"}, TopK: 3, MinPts: 2,
			Scenario: "two-vantage-exact", Loss: 0.25,
		},
		Attempts: 3,
		Error:    "transient: timeout",
		Payload:  json.RawMessage(`{"blocked":true,"ttl":7}`),
		Digest:   "8b2c9a0f8b2c9a0f8b2c9a0f8b2c9a0f8b2c9a0f8b2c9a0f8b2c9a0f8b2c9a0f",
		Replicas: []string{"node-a", "node-c"},
	}
}

// TestStoreRecordRoundTrip is the golden check for the binary codec: a
// fully populated record must survive encode→decode bit-for-bit, and the
// decoded record's JSON form — the export view — must match the JSON of
// the original record.
func TestStoreRecordRoundTrip(t *testing.T) {
	orig := fullStoreRecord()
	payload := appendStoreRecord(nil, orig)
	got, err := decodeStoreRecord(payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("round trip diverged:\n  orig %+v\n  got  %+v", orig, got)
	}

	origJSON, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	exportJSON, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(origJSON) != string(exportJSON) {
		t.Fatalf("JSON view diverged from the original:\n  orig   %s\n  export %s", origJSON, exportJSON)
	}
}

// TestStoreRecordRoundTripZero: the all-zero record (nil spec, nil
// payload) must round-trip too — presence bits, not sentinel values.
func TestStoreRecordRoundTripZero(t *testing.T) {
	orig := &storeRecord{ID: "j-0", State: StateQueued}
	got, err := decodeStoreRecord(appendStoreRecord(nil, orig))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("zero record diverged: %+v vs %+v", orig, got)
	}
}

// TestStoreRecordEncodingDeterministic: the byte stream must be a pure
// function of the record — same record, same bytes, every time.
func TestStoreRecordEncodingDeterministic(t *testing.T) {
	rec := fullStoreRecord()
	a := appendStoreRecord(nil, rec)
	b := appendStoreRecord(nil, rec)
	if string(a) != string(b) {
		t.Fatal("two encodings of the same record differ")
	}
}

// TestStoreRecordVersionGate: a record from a future schema version must
// be rejected, not misparsed.
func TestStoreRecordVersionGate(t *testing.T) {
	payload := appendStoreRecord(nil, fullStoreRecord())
	payload[0] = storeRecordV3 + 1
	if _, err := decodeStoreRecord(payload); err == nil {
		t.Fatal("future-version record decoded without error")
	}
}

// TestStoreRecordV1Compat: records written by the V1 schema (no digest,
// no replicas, no scenario) and the V2 schema (no scenario) must still
// decode — old shard segments outlive upgrades.
func TestStoreRecordV1Compat(t *testing.T) {
	orig := fullStoreRecord()
	orig.Spec.Scenario = ""
	// Encode at V3, then rewrite as V2 by stamping the version byte and
	// dropping the V3 suffix (the empty scenario string: one byte).
	v3 := appendStoreRecord(nil, orig)
	v2 := append([]byte{storeRecordV2}, v3[1:len(v3)-1]...)
	got, err := decodeStoreRecord(v2)
	if err != nil {
		t.Fatalf("decode v2 record: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("v2 record diverged:\n  orig %+v\n  got  %+v", orig, got)
	}

	// V1 also lacks the V2 suffix: with an empty digest and no replicas,
	// exactly two more trailing bytes.
	orig.Digest = ""
	orig.Replicas = nil
	v3 = appendStoreRecord(nil, orig)
	v1 := append([]byte{storeRecordV1}, v3[1:len(v3)-3]...)
	got, err = decodeStoreRecord(v1)
	if err != nil {
		t.Fatalf("decode v1 record: %v", err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatalf("v1 record diverged:\n  orig %+v\n  got  %+v", orig, got)
	}
}

// TestStoreRecordJobSpecEveryField: every JobSpec field, each set to a
// non-zero value by reflection, must survive the record round trip. A
// field added to JobSpec without a codec change fails here.
func TestStoreRecordJobSpecEveryField(t *testing.T) {
	var spec JobSpec
	v := reflect.ValueOf(&spec).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.String:
			f.SetString("x-" + name)
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(i + 1))
		case reflect.Float64:
			f.SetFloat(float64(i) + 0.5)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.Slice:
			if f.Type().Elem().Kind() != reflect.String {
				t.Fatalf("JobSpec.%s: no test value for %s", name, f.Type())
			}
			f.Set(reflect.ValueOf([]string{"a-" + name, "b-" + name}))
		default:
			t.Fatalf("JobSpec.%s: no test value for %s", name, f.Type())
		}
	}
	rec := &storeRecord{Seq: 1, ID: "j-1", State: StateQueued, Spec: &spec}
	got, err := decodeStoreRecord(appendStoreRecord(nil, rec))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(*got.Spec, spec) {
		t.Fatalf("spec diverged in the store codec:\n  want %+v\n  got  %+v", spec, *got.Spec)
	}
}

// FuzzStoreRecordRoundTrip feeds arbitrary bytes to the record decoder:
// it must never panic, and any payload it accepts must re-encode and
// re-decode to the same record (decode∘encode is the identity on the
// decoder's image).
func FuzzStoreRecordRoundTrip(f *testing.F) {
	f.Add(appendStoreRecord(nil, fullStoreRecord()))
	f.Add(appendStoreRecord(nil, &storeRecord{ID: "j-1", State: StateQueued}))
	f.Add([]byte{storeRecordV1})
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := decodeStoreRecord(payload)
		if err != nil {
			return
		}
		re := appendStoreRecord(nil, rec)
		rec2, err := decodeStoreRecord(re)
		if err != nil {
			t.Fatalf("re-encoded record failed to decode: %v", err)
		}
		if !reflect.DeepEqual(rec, rec2) {
			t.Fatalf("round trip diverged:\n  first  %+v\n  second %+v", rec, rec2)
		}
	})
}
