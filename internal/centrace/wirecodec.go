package centrace

// Binary form of one journal entry (DESIGN.md §14): the frame payload a
// checkpoint writes through internal/wire. The entire Result tree is
// hand-encoded — no reflection, no per-record allocation on the append
// path — with the leading version byte gating schema evolution. The JSON
// shape survives only as the export/debug view (Journal.ExportJSON).
//
// Config.Obs, Config.Tracer, and Config.Parent are runtime wiring, not
// measurement data, and are not persisted (the JSON form drops them the
// same way); decode leaves them nil. Aggregate.HopDist is a nested map,
// so encoding iterates its keys in sorted order — the byte stream must
// be a pure function of the data for the determinism invariants cenlint
// enforces.

import (
	"fmt"
	"net/netip"
	"sort"
	"time"

	"cendev/internal/netem"
	"cendev/internal/wire"
)

// journalV1 is the version byte of the current journal record schema.
const journalV1 = 1

// appendJournalEntry appends the binary payload of e to b.
func appendJournalEntry(b []byte, e *journalEntry) []byte {
	b = append(b, journalV1)
	b = wire.AppendString(b, e.Key)
	b = wire.AppendString(b, e.Endpoint)
	b = wire.AppendString(b, e.Domain)
	b = wire.AppendString(b, e.Protocol)
	b = wire.AppendString(b, e.Label)
	b = wire.AppendString(b, e.Error)
	b = wire.AppendBool(b, e.Result != nil)
	if e.Result != nil {
		b = appendResult(b, e.Result)
	}
	return b
}

// decodeJournalEntry decodes one binary journal entry payload.
func decodeJournalEntry(payload []byte) (journalEntry, error) {
	d := wire.NewDec(payload)
	var e journalEntry
	if v := d.Byte(); v != journalV1 {
		if d.Err() == nil {
			return e, fmt.Errorf("centrace: unknown journal record version %d", v)
		}
		return e, d.Err()
	}
	e.Key = d.String()
	e.Endpoint = d.String()
	e.Domain = d.String()
	e.Protocol = d.String()
	e.Label = d.String()
	e.Error = d.String()
	if d.Bool() {
		e.Result = decodeResult(d)
	}
	if err := d.Err(); err != nil {
		return journalEntry{}, err
	}
	return e, nil
}

func appendResult(b []byte, r *Result) []byte {
	b = appendConfig(b, &r.Config)
	b = wire.AppendAddr(b, r.Client)
	b = wire.AppendAddr(b, r.Endpoint)
	b = wire.AppendBool(b, r.Valid)
	b = wire.AppendBool(b, r.Blocked)
	b = wire.AppendVarint(b, int64(r.TermKind))
	b = wire.AppendVarint(b, int64(r.TermTTL))
	b = wire.AppendVarint(b, int64(r.EndpointTTL))
	b = wire.AppendVarint(b, int64(r.Location))
	b = wire.AppendVarint(b, int64(r.Placement))
	b = wire.AppendVarint(b, int64(r.DeviceTTL))
	b = wire.AppendBool(b, r.TTLCopyCorrected)
	b = appendHopInfo(b, &r.BlockingHop)
	b = wire.AppendBool(b, r.Injected != nil)
	if r.Injected != nil {
		b = appendInjected(b, r.Injected)
	}
	b = wire.AppendBool(b, r.QuoteDelta != nil)
	if r.QuoteDelta != nil {
		b = r.QuoteDelta.AppendWire(b)
	}
	b = wire.AppendString(b, r.BlockpageVendor)
	b = wire.AppendString(b, r.BlockpageID)
	b = wire.AppendFloat64(b, r.Confidence.Score)
	b = wire.AppendFloat64(b, r.Confidence.TermAgreement)
	b = wire.AppendFloat64(b, r.Confidence.HopSupport)
	b = wire.AppendFloat64(b, r.Confidence.RetryRate)
	b = wire.AppendFloat64(b, r.Confidence.DialFailRate)
	b = wire.AppendBool(b, r.Degraded)
	b = wire.AppendBool(b, r.Control != nil)
	if r.Control != nil {
		b = appendAggregate(b, r.Control)
	}
	b = wire.AppendBool(b, r.Test != nil)
	if r.Test != nil {
		b = appendAggregate(b, r.Test)
	}
	return b
}

func decodeResult(d *wire.Dec) *Result {
	r := &Result{}
	decodeConfig(d, &r.Config)
	r.Client = d.Addr()
	r.Endpoint = d.Addr()
	r.Valid = d.Bool()
	r.Blocked = d.Bool()
	r.TermKind = ResponseKind(d.Varint())
	r.TermTTL = int(d.Varint())
	r.EndpointTTL = int(d.Varint())
	r.Location = LocationClass(d.Varint())
	r.Placement = PlacementClass(d.Varint())
	r.DeviceTTL = int(d.Varint())
	r.TTLCopyCorrected = d.Bool()
	decodeHopInfo(d, &r.BlockingHop)
	if d.Bool() {
		r.Injected = &InjectedFeatures{}
		decodeInjected(d, r.Injected)
	}
	if d.Bool() {
		r.QuoteDelta = &netem.QuoteDelta{}
		r.QuoteDelta.DecodeWire(d)
	}
	r.BlockpageVendor = d.String()
	r.BlockpageID = d.String()
	r.Confidence.Score = d.Float64()
	r.Confidence.TermAgreement = d.Float64()
	r.Confidence.HopSupport = d.Float64()
	r.Confidence.RetryRate = d.Float64()
	r.Confidence.DialFailRate = d.Float64()
	r.Degraded = d.Bool()
	if d.Bool() {
		r.Control = decodeAggregate(d)
	}
	if d.Bool() {
		r.Test = decodeAggregate(d)
	}
	return r
}

func appendConfig(b []byte, c *Config) []byte {
	b = wire.AppendString(b, c.ControlDomain)
	b = wire.AppendString(b, c.TestDomain)
	b = wire.AppendVarint(b, int64(c.Protocol))
	b = wire.AppendVarint(b, int64(c.MaxTTL))
	b = wire.AppendVarint(b, int64(c.Repetitions))
	b = wire.AppendVarint(b, int64(c.Retries))
	b = wire.AppendVarint(b, int64(c.ProbeInterval))
	return wire.AppendVarint(b, int64(c.MaxConsecutiveTimeouts))
}

func decodeConfig(d *wire.Dec, c *Config) {
	c.ControlDomain = d.String()
	c.TestDomain = d.String()
	c.Protocol = Protocol(d.Varint())
	c.MaxTTL = int(d.Varint())
	c.Repetitions = int(d.Varint())
	c.Retries = int(d.Varint())
	c.ProbeInterval = time.Duration(d.Varint())
	c.MaxConsecutiveTimeouts = int(d.Varint())
}

func appendHopInfo(b []byte, h *HopInfo) []byte {
	b = wire.AppendVarint(b, int64(h.TTL))
	b = wire.AppendAddr(b, h.Addr)
	b = wire.AppendUvarint(b, uint64(h.ASN))
	b = wire.AppendString(b, h.Country)
	return wire.AppendString(b, h.Org)
}

func decodeHopInfo(d *wire.Dec, h *HopInfo) {
	h.TTL = int(d.Varint())
	h.Addr = d.Addr()
	h.ASN = uint32(d.Uvarint())
	h.Country = d.String()
	h.Org = d.String()
}

func appendInjected(b []byte, in *InjectedFeatures) []byte {
	b = append(b, in.TTL)
	b = wire.AppendUvarint(b, uint64(in.IPID))
	b = append(b, byte(in.IPFlags), byte(in.TCPFlags))
	b = wire.AppendUvarint(b, uint64(in.TCPWindow))
	b = wire.AppendUvarint(b, uint64(len(in.Options)))
	for _, k := range in.Options {
		b = append(b, byte(k))
	}
	return b
}

func decodeInjected(d *wire.Dec, in *InjectedFeatures) {
	in.TTL = d.Byte()
	in.IPID = uint16(d.Uvarint())
	in.IPFlags = netem.IPFlags(d.Byte())
	in.TCPFlags = netem.TCPFlags(d.Byte())
	in.TCPWindow = uint16(d.Uvarint())
	if n := d.Count(); n > 0 && d.Err() == nil {
		in.Options = make([]netem.TCPOptionKind, 0, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			in.Options = append(in.Options, netem.TCPOptionKind(d.Byte()))
		}
	}
}

func appendAggregate(b []byte, a *Aggregate) []byte {
	b = wire.AppendString(b, a.Domain)
	b = wire.AppendUvarint(b, uint64(len(a.Traces)))
	for i := range a.Traces {
		b = appendTrace(b, &a.Traces[i])
	}
	// HopDist is map-shaped: iterate both levels in sorted order so the
	// encoding is deterministic.
	ttls := make([]int, 0, len(a.HopDist))
	for ttl := range a.HopDist {
		ttls = append(ttls, ttl)
	}
	sort.Ints(ttls)
	b = wire.AppendUvarint(b, uint64(len(ttls)))
	for _, ttl := range ttls {
		dist := a.HopDist[ttl]
		b = wire.AppendVarint(b, int64(ttl))
		addrs := make([]netip.Addr, 0, len(dist))
		for addr := range dist {
			addrs = append(addrs, addr)
		}
		sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
		b = wire.AppendUvarint(b, uint64(len(addrs)))
		for _, addr := range addrs {
			b = wire.AppendAddr(b, addr)
			b = wire.AppendVarint(b, int64(dist[addr]))
		}
	}
	b = wire.AppendVarint(b, int64(a.TermTTL))
	b = wire.AppendVarint(b, int64(a.TermKind))
	return wire.AppendVarint(b, int64(a.EndpointTTL))
}

func decodeAggregate(d *wire.Dec) *Aggregate {
	a := &Aggregate{}
	a.Domain = d.String()
	if n := d.Count(); n > 0 && d.Err() == nil {
		a.Traces = make([]Trace, 0, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			var t Trace
			decodeTrace(d, &t)
			a.Traces = append(a.Traces, t)
		}
	}
	if n := d.Count(); d.Err() == nil {
		if n > 0 {
			a.HopDist = make(map[int]map[netip.Addr]int, n)
		}
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			ttl := int(d.Varint())
			m := d.Count()
			dist := make(map[netip.Addr]int, m)
			for k := uint64(0); k < m && d.Err() == nil; k++ {
				addr := d.Addr()
				dist[addr] = int(d.Varint())
			}
			if d.Err() == nil {
				a.HopDist[ttl] = dist
			}
		}
	}
	a.TermTTL = int(d.Varint())
	a.TermKind = ResponseKind(d.Varint())
	a.EndpointTTL = int(d.Varint())
	return a
}

func appendTrace(b []byte, t *Trace) []byte {
	b = wire.AppendString(b, t.Domain)
	b = wire.AppendUvarint(b, uint64(len(t.Obs)))
	for i := range t.Obs {
		b = appendProbeObs(b, &t.Obs[i])
	}
	b = wire.AppendVarint(b, int64(t.TermIdx))
	b = wire.AppendVarint(b, int64(t.Attempts))
	b = wire.AppendVarint(b, int64(t.Retries))
	return wire.AppendVarint(b, int64(t.DialFailures))
}

func decodeTrace(d *wire.Dec, t *Trace) {
	t.Domain = d.String()
	if n := d.Count(); n > 0 && d.Err() == nil {
		t.Obs = make([]ProbeObs, 0, n)
		for i := uint64(0); i < n && d.Err() == nil; i++ {
			var o ProbeObs
			decodeProbeObs(d, &o)
			t.Obs = append(t.Obs, o)
		}
	}
	t.TermIdx = int(d.Varint())
	t.Attempts = int(d.Varint())
	t.Retries = int(d.Varint())
	t.DialFailures = int(d.Varint())
}

func appendProbeObs(b []byte, o *ProbeObs) []byte {
	b = wire.AppendVarint(b, int64(o.TTL))
	b = wire.AppendVarint(b, int64(o.Kind))
	b = wire.AppendAddr(b, o.From)
	b = wire.AppendBool(b, o.GotICMPAlongside)
	b = wire.AppendAddr(b, o.ICMPFrom)
	b = wire.AppendBytes(b, o.Payload)
	b = wire.AppendBool(b, o.Injected != nil)
	if o.Injected != nil {
		b = appendInjected(b, o.Injected)
	}
	b = wire.AppendBool(b, o.Quote != nil)
	if o.Quote != nil {
		b = o.Quote.AppendWire(b)
	}
	b = wire.AppendBool(b, o.QuoteDelta != nil)
	if o.QuoteDelta != nil {
		b = o.QuoteDelta.AppendWire(b)
	}
	return wire.AppendBool(b, o.DialFailed)
}

func decodeProbeObs(d *wire.Dec, o *ProbeObs) {
	o.TTL = int(d.Varint())
	o.Kind = ResponseKind(d.Varint())
	o.From = d.Addr()
	o.GotICMPAlongside = d.Bool()
	o.ICMPFrom = d.Addr()
	o.Payload = d.Bytes()
	if d.Bool() {
		o.Injected = &InjectedFeatures{}
		decodeInjected(d, o.Injected)
	}
	if d.Bool() {
		o.Quote = &netem.QuotedPacket{}
		o.Quote.DecodeWire(d)
	}
	if d.Bool() {
		o.QuoteDelta = &netem.QuoteDelta{}
		o.QuoteDelta.DecodeWire(d)
	}
	o.DialFailed = d.Bool()
}
