package serve

// Binary form of one store record (DESIGN.md §14): the frame payload a
// shard append writes through internal/wire. The leading version byte
// gates schema evolution; every field after it is fixed-order. The JSON
// shape survives only as the export/debug view (Store.ExportJSON).

import (
	"fmt"

	"cendev/internal/wire"
)

// Store record schema versions. V1 is the pre-cluster shape; V2 appends
// the result digest and replica set; V3 appends the spec's tomography
// scenario when the record carries a spec. New records are written at
// V3; V1 and V2 records stay readable forever.
const (
	storeRecordV1 = 1
	storeRecordV2 = 2
	storeRecordV3 = 3
)

// appendStoreRecord appends the binary payload of rec to b.
func appendStoreRecord(b []byte, rec *storeRecord) []byte {
	b = append(b, storeRecordV3)
	b = wire.AppendVarint(b, rec.Seq)
	b = wire.AppendVarint(b, rec.Merged)
	b = wire.AppendString(b, rec.ID)
	b = wire.AppendString(b, string(rec.State))
	b = wire.AppendBool(b, rec.Spec != nil)
	if rec.Spec != nil {
		b = appendJobSpec(b, rec.Spec)
	}
	b = wire.AppendVarint(b, int64(rec.Attempts))
	b = wire.AppendString(b, rec.Error)
	b = wire.AppendBytes(b, rec.Payload)
	b = wire.AppendString(b, rec.Digest)
	b = wire.AppendUvarint(b, uint64(len(rec.Replicas)))
	for _, r := range rec.Replicas {
		b = wire.AppendString(b, r)
	}
	if rec.Spec != nil {
		b = wire.AppendString(b, rec.Spec.Scenario)
	}
	return b
}

// decodeStoreRecord decodes one binary record payload.
func decodeStoreRecord(payload []byte) (*storeRecord, error) {
	d := wire.NewDec(payload)
	v := d.Byte()
	if v < storeRecordV1 || v > storeRecordV3 {
		if d.Err() == nil {
			return nil, fmt.Errorf("serve: unknown store record version %d", v)
		}
		return nil, d.Err()
	}
	rec := &storeRecord{}
	rec.Seq = d.Varint()
	rec.Merged = d.Varint()
	rec.ID = d.String()
	rec.State = JobState(d.String())
	if d.Bool() {
		rec.Spec = &JobSpec{}
		decodeJobSpec(d, rec.Spec)
	}
	rec.Attempts = int(d.Varint())
	rec.Error = d.String()
	rec.Payload = d.Bytes()
	if v >= storeRecordV2 {
		rec.Digest = d.String()
		if n := d.Count(); n > 0 && d.Err() == nil {
			rec.Replicas = make([]string, 0, n)
			for i := uint64(0); i < n && d.Err() == nil; i++ {
				rec.Replicas = append(rec.Replicas, d.String())
			}
		}
	}
	if v >= storeRecordV3 && rec.Spec != nil {
		rec.Spec.Scenario = d.String()
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return rec, nil
}

func appendJobSpec(b []byte, s *JobSpec) []byte {
	b = wire.AppendString(b, s.Kind)
	b = wire.AppendString(b, s.Tenant)
	b = wire.AppendVarint(b, int64(s.Priority))
	b = wire.AppendVarint(b, s.Seed)
	b = wire.AppendString(b, s.Client)
	b = wire.AppendString(b, s.Endpoint)
	b = wire.AppendString(b, s.Domain)
	b = wire.AppendString(b, s.Control)
	b = wire.AppendString(b, s.Protocol)
	b = wire.AppendVarint(b, int64(s.Repetitions))
	b = wire.AppendVarint(b, int64(s.Workers))
	b = wire.AppendVarint(b, int64(s.RetryPasses))
	b = wire.AppendString(b, s.Strategy)
	b = wire.AppendBool(b, s.Extensions)
	b = wire.AppendUvarint(b, uint64(len(s.Addrs)))
	for _, a := range s.Addrs {
		b = wire.AppendString(b, a)
	}
	b = wire.AppendVarint(b, int64(s.TopK))
	b = wire.AppendVarint(b, int64(s.MinPts))
	return wire.AppendFloat64(b, s.Loss)
}

func decodeJobSpec(d *wire.Dec, s *JobSpec) {
	s.Kind = d.String()
	s.Tenant = d.String()
	s.Priority = int(d.Varint())
	s.Seed = d.Varint()
	s.Client = d.String()
	s.Endpoint = d.String()
	s.Domain = d.String()
	s.Control = d.String()
	s.Protocol = d.String()
	s.Repetitions = int(d.Varint())
	s.Workers = int(d.Varint())
	s.RetryPasses = int(d.Varint())
	s.Strategy = d.String()
	s.Extensions = d.Bool()
	if n := d.Count(); n > 0 && d.Err() == nil {
		s.Addrs = make([]string, 0, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			s.Addrs = append(s.Addrs, d.String())
		}
	}
	s.TopK = int(d.Varint())
	s.MinPts = int(d.Varint())
	s.Loss = d.Float64()
}
