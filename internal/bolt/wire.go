// Package bolt implements a simplified version of Neo4j's Bolt protocol
// (Sec 6.7): a binary client-server protocol over TCP with the same message
// lifecycle — HELLO to open a session, RUN to submit a (temporal) Cypher
// query with parameters, PULL to stream RECORDs followed by a SUCCESS
// summary, FAILURE for recoverable errors, GOODBYE to close. Frames are
// length-prefixed; values use a compact tagged encoding (packstream-like).
package bolt

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"aion/internal/cypher"
	"aion/internal/model"
)

// Message types.
const (
	MsgHello   byte = 0x01
	MsgGoodbye byte = 0x02
	MsgRun     byte = 0x10
	MsgPull    byte = 0x3F
	MsgRecord  byte = 0x71
	MsgSuccess byte = 0x70
	MsgFailure byte = 0x7F

	// Replication stream messages (internal/replica). A follower sends
	// MsgReplicate after HELLO to convert the connection into a one-way
	// log-shipping stream; the primary then pushes MsgRepBatch frames and
	// MsgRepHeartbeat keepalives until the connection drops.
	MsgReplicate    byte = 0x60
	MsgRepBatch     byte = 0x61
	MsgRepHeartbeat byte = 0x62

	// Cluster admin messages (failover). MsgPromote asks this node to
	// advance the fencing epoch and become the primary; MsgStatus asks for
	// its role/epoch/watermark. Both are sent in place of RUN after HELLO
	// and answered with a SUCCESS carrying uvarint fields, or a FAILURE.
	MsgPromote byte = 0x50
	MsgStatus  byte = 0x51
)

// FAILURE codes. A FAILURE frame is [MsgFailure, code, message string]; the
// code tells the client whether the statement itself was rejected
// (terminal) or whether the server's current state caused the rejection
// (retryable — the same statement may succeed after a backoff).
const (
	// FailGeneric is a terminal statement error (parse error, unknown
	// procedure, bad arguments, ...). Retrying the same statement cannot
	// succeed.
	FailGeneric byte = 0x00
	// FailTimeout means the query exceeded its deadline. Terminal: the same
	// query would time out again unless the client raises its timeout.
	FailTimeout byte = 0x01
	// FailOverloaded means admission control shed the query because the
	// concurrent-query limit was reached. Retryable after backoff.
	FailOverloaded byte = 0x02
	// FailShuttingDown means the server is draining and no longer admits
	// queries. Retryable — against another replica, or after a restart.
	FailShuttingDown byte = 0x03
	// FailPanic means the query crashed inside the engine. The panic was
	// contained to this query; the connection and server remain usable.
	// Terminal, since the same statement would likely crash again.
	FailPanic byte = 0x04
	// FailReplicaLag means a replica rejected a read because the requested
	// timestamp lies above its replicated watermark (or the replica has
	// fallen beyond its staleness bound). Retryable: the watermark advances
	// as the primary's log streams in, and routing clients fall back to
	// the primary.
	FailReplicaLag byte = 0x05
	// FailReadOnly means a write statement reached a replica. Terminal on
	// this server; a routing client redirects the statement to the primary.
	FailReadOnly byte = 0x06
	// FailDiverged means the replication stream failed verification (CRC or
	// offset mismatch). The replica has fail-stopped and serves no further
	// queries; operator intervention (re-seed) is required.
	FailDiverged byte = 0x07
	// FailFenced means the node observed a higher fencing epoch than the
	// request's (or than its own reign) and refuses the operation: it is a
	// demoted ex-primary, sticky read-only. Routing clients re-resolve the
	// primary; a stale primary's clients must NOT simply retry here.
	FailFenced byte = 0x08
)

// ServerError is a FAILURE received from the server, carrying the failure
// code so clients can distinguish retryable overload/drain conditions from
// terminal statement errors.
type ServerError struct {
	Code byte
	Msg  string
}

// Error renders the failure with its code name.
func (e *ServerError) Error() string {
	return fmt.Sprintf("bolt: server failure (%s): %s", failName(e.Code), e.Msg)
}

// Retryable reports whether the same statement may succeed if retried
// after a backoff.
func (e *ServerError) Retryable() bool {
	return e.Code == FailOverloaded || e.Code == FailShuttingDown || e.Code == FailReplicaLag
}

func failName(code byte) string {
	switch code {
	case FailTimeout:
		return "timeout"
	case FailOverloaded:
		return "overloaded"
	case FailShuttingDown:
		return "shutting down"
	case FailPanic:
		return "panic"
	case FailReplicaLag:
		return "replica lag"
	case FailReadOnly:
		return "read only"
	case FailDiverged:
		return "diverged"
	case FailFenced:
		return "fenced"
	}
	return "error"
}

// appendFailure encodes a FAILURE frame payload.
func appendFailure(code byte, msg string) []byte {
	payload := []byte{MsgFailure, code}
	return appendString(payload, msg)
}

// decodeFailure decodes a FAILURE frame body (everything after the message
// byte) into a ServerError.
func decodeFailure(b []byte) *ServerError {
	if len(b) == 0 {
		return &ServerError{Code: FailGeneric, Msg: "unknown failure"}
	}
	code := b[0]
	msg, _, err := readString(b[1:])
	if err != nil {
		return &ServerError{Code: FailGeneric, Msg: "malformed failure frame"}
	}
	return &ServerError{Code: code, Msg: msg}
}

// Value tags.
const (
	tagNull   byte = 0x00
	tagInt    byte = 0x01
	tagFloat  byte = 0x02
	tagBool   byte = 0x03
	tagString byte = 0x04
	tagNode   byte = 0x10
	tagRel    byte = 0x11
)

// maxFrame bounds a single message frame (16 MiB).
const maxFrame = 16 << 20

// WriteFrame sends one length-prefixed message. Exported for the
// replication stream (internal/replica), which reuses Bolt's framing for
// its log shipments.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame receives one length-prefixed message (see WriteFrame).
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("bolt: frame of %d bytes exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// --- scalar encoding ---------------------------------------------------------

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func readString(b []byte) (string, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || uint64(len(b)-w) < n {
		return "", nil, fmt.Errorf("bolt: bad string")
	}
	return string(b[w : w+int(n)]), b[w+int(n):], nil
}

func appendScalar(b []byte, v model.Value) []byte {
	switch v.Kind() {
	case model.KindInt:
		b = append(b, tagInt)
		return binary.AppendVarint(b, v.Int())
	case model.KindFloat:
		b = append(b, tagFloat)
		var x [8]byte
		binary.BigEndian.PutUint64(x[:], math.Float64bits(v.Float()))
		return append(b, x[:]...)
	case model.KindBool:
		b = append(b, tagBool)
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case model.KindString:
		b = append(b, tagString)
		return appendString(b, v.Str())
	default:
		return append(b, tagNull)
	}
}

func readScalar(b []byte) (model.Value, []byte, error) {
	if len(b) < 1 {
		return model.Value{}, nil, fmt.Errorf("bolt: empty scalar")
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case tagNull:
		return model.NullValue(), b, nil
	case tagInt:
		x, w := binary.Varint(b)
		if w <= 0 {
			return model.Value{}, nil, fmt.Errorf("bolt: bad int")
		}
		return model.IntValue(x), b[w:], nil
	case tagFloat:
		if len(b) < 8 {
			return model.Value{}, nil, fmt.Errorf("bolt: bad float")
		}
		return model.FloatValue(math.Float64frombits(binary.BigEndian.Uint64(b))), b[8:], nil
	case tagBool:
		if len(b) < 1 {
			return model.Value{}, nil, fmt.Errorf("bolt: bad bool")
		}
		return model.BoolValue(b[0] != 0), b[1:], nil
	case tagString:
		s, rest, err := readString(b)
		if err != nil {
			return model.Value{}, nil, err
		}
		return model.StringValue(s), rest, nil
	}
	return model.Value{}, nil, fmt.Errorf("bolt: unknown scalar tag 0x%x", tag)
}

func appendProps(b []byte, p model.Properties) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	for k, v := range p {
		b = appendString(b, k)
		b = appendScalar(b, v)
	}
	return b
}

func readProps(b []byte) (model.Properties, []byte, error) {
	n, w := binary.Uvarint(b)
	if w <= 0 {
		return nil, nil, fmt.Errorf("bolt: bad prop count")
	}
	b = b[w:]
	var props model.Properties
	for i := uint64(0); i < n; i++ {
		var k string
		var v model.Value
		var err error
		k, b, err = readString(b)
		if err != nil {
			return nil, nil, err
		}
		v, b, err = readScalar(b)
		if err != nil {
			return nil, nil, err
		}
		if props == nil {
			props = model.Properties{}
		}
		props[k] = v
	}
	return props, b, nil
}

// appendVal encodes a result cell (scalar, node, or relationship).
func appendVal(b []byte, v cypher.Val) []byte {
	switch {
	case v.Node != nil:
		b = append(b, tagNode)
		b = binary.AppendVarint(b, int64(v.Node.ID))
		b = binary.AppendUvarint(b, uint64(len(v.Node.Labels)))
		for _, l := range v.Node.Labels {
			b = appendString(b, l)
		}
		b = appendProps(b, v.Node.Props)
		b = binary.AppendVarint(b, int64(v.Node.Valid.Start))
		return binary.AppendVarint(b, int64(v.Node.Valid.End))
	case v.Rel != nil:
		b = append(b, tagRel)
		b = binary.AppendVarint(b, int64(v.Rel.ID))
		b = binary.AppendVarint(b, int64(v.Rel.Src))
		b = binary.AppendVarint(b, int64(v.Rel.Tgt))
		b = appendString(b, v.Rel.Label)
		b = appendProps(b, v.Rel.Props)
		b = binary.AppendVarint(b, int64(v.Rel.Valid.Start))
		return binary.AppendVarint(b, int64(v.Rel.Valid.End))
	default:
		return appendScalar(b, v.S)
	}
}

func readVarint(b []byte) (int64, []byte, error) {
	x, w := binary.Varint(b)
	if w <= 0 {
		return 0, nil, fmt.Errorf("bolt: bad varint")
	}
	return x, b[w:], nil
}

// readVal decodes a result cell.
func readVal(b []byte) (cypher.Val, []byte, error) {
	if len(b) < 1 {
		return cypher.Val{}, nil, fmt.Errorf("bolt: empty value")
	}
	switch b[0] {
	case tagNode:
		b = b[1:]
		id, b, err := readVarint(b)
		if err != nil {
			return cypher.Val{}, nil, err
		}
		nl, w := binary.Uvarint(b)
		if w <= 0 || nl > uint64(len(b)) { // each label needs >= 1 byte
			return cypher.Val{}, nil, fmt.Errorf("bolt: bad label count")
		}
		b = b[w:]
		labels := make([]string, nl)
		for i := range labels {
			labels[i], b, err = readString(b)
			if err != nil {
				return cypher.Val{}, nil, err
			}
		}
		props, b, err := readProps(b)
		if err != nil {
			return cypher.Val{}, nil, err
		}
		start, b, err := readVarint(b)
		if err != nil {
			return cypher.Val{}, nil, err
		}
		end, b, err := readVarint(b)
		if err != nil {
			return cypher.Val{}, nil, err
		}
		n := &model.Node{ID: model.NodeID(id), Labels: labels, Props: props,
			Valid: model.Interval{Start: model.Timestamp(start), End: model.Timestamp(end)}}
		return cypher.NodeVal(n), b, nil
	case tagRel:
		b = b[1:]
		id, b, err := readVarint(b)
		if err != nil {
			return cypher.Val{}, nil, err
		}
		src, b, err := readVarint(b)
		if err != nil {
			return cypher.Val{}, nil, err
		}
		tgt, b, err := readVarint(b)
		if err != nil {
			return cypher.Val{}, nil, err
		}
		label, b, err := readString(b)
		if err != nil {
			return cypher.Val{}, nil, err
		}
		props, b, err := readProps(b)
		if err != nil {
			return cypher.Val{}, nil, err
		}
		start, b, err := readVarint(b)
		if err != nil {
			return cypher.Val{}, nil, err
		}
		end, b, err := readVarint(b)
		if err != nil {
			return cypher.Val{}, nil, err
		}
		r := &model.Rel{ID: model.RelID(id), Src: model.NodeID(src), Tgt: model.NodeID(tgt),
			Label: label, Props: props,
			Valid: model.Interval{Start: model.Timestamp(start), End: model.Timestamp(end)}}
		return cypher.RelVal(r), b, nil
	default:
		s, rest, err := readScalar(b)
		if err != nil {
			return cypher.Val{}, nil, err
		}
		return cypher.ScalarVal(s), rest, nil
	}
}
