package wire

import (
	"encoding/binary"

	"sconrep/internal/certifier"
	"sconrep/internal/writeset"
)

// Refresh frames. The refresh stream is the replication hot path —
// every committed update transaction crosses it once per replica — and
// a refresh has the same layout wherever it travels, pushed on the
// stream or paged in a history response:
//
//	uvarint TxnID, uvarint Version, varint Origin, writeset
//
// where the writeset is internal/writeset's encoding, whose leading
// flags byte is zero for a version skip marker. Version 0 is a
// global-commit notice, followed by its uvarint GlobalThrough. A stream
// frame is a uvarint count followed by that many entries.
//
// The receiver's frame buffer is exact-size and single-use, and every
// decoded string aliases it — zero copies, zero per-string allocations.
// The cost is that one retained string pins its whole frame, which is
// fine here because refresh writesets are applied and dropped promptly.

// refreshBatch is one frame of the refresh stream.
type refreshBatch []certifier.Refresh

func (b refreshBatch) appendTo(buf []byte) ([]byte, error) {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	for i := range b {
		var err error
		if buf, err = appendRefresh(buf, &b[i]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func (b *refreshBatch) parse(d *writeset.Decoder) {
	n := d.Count()
	out := make([]certifier.Refresh, n)
	for i := 0; i < n && !d.Failed(); i++ {
		out[i] = readRefresh(d)
	}
	*b = out
}

func appendRefresh(buf []byte, r *certifier.Refresh) ([]byte, error) {
	buf = binary.AppendUvarint(buf, r.TxnID)
	buf = binary.AppendUvarint(buf, r.Version)
	buf = binary.AppendVarint(buf, int64(r.Origin))
	buf, err := r.WS.AppendTo(buf)
	if err != nil || r.Version != 0 {
		return buf, err
	}
	return binary.AppendUvarint(buf, r.GlobalThrough), nil
}

func readRefresh(d *writeset.Decoder) certifier.Refresh {
	r := certifier.Refresh{TxnID: d.Uvarint(), Version: d.Uvarint(), Origin: int(d.Varint()), WS: d.WriteSet()}
	if r.Version == 0 {
		r.GlobalThrough = d.Uvarint()
	}
	return r
}
