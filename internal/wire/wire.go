// Package wire defines the protocol between per-node profiling agents
// and the global power manager daemon: length-prefixed binary frames
// (binary.go) over TCP, after a newline-delimited JSON hello. One
// connection per agent, established agent→manager:
//
//	agent → manager: hello   (node identity, level table size, current level)
//	agent → manager: sample  (interval counters + current level, every τ)
//	manager → agent: command (target power level, sequence number)
//	agent → manager: ack     (sequence number + level actually applied)
//	manager → agent: ping    (liveness heartbeat feeding the agent's
//	                          dead-man switch; carries no payload)
//
// The protocol carries raw interval counters rather than watt estimates:
// the power profile model runs centrally, so model updates never require
// touching the fleet of agents.
//
// A session settles on one codec, binary, on its first exchange (link.go).
// JSON is the hello and its reply, the status probe and its reply, what a
// peer that does not advertise binary keeps getting, and the fuzz
// reference. The read side auto-detects per frame, so a peer that
// predates the negotiation still reads and is read.
package wire

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/manager"
	"repro/internal/node"
	"repro/internal/procfs"
	"repro/internal/workload"
)

// Message kinds.
const (
	KindHello   = "hello"
	KindSample  = "sample"
	KindCommand = "command"
	KindAck     = "ack"
	KindPing    = "ping"   // manager → agent: liveness heartbeat
	KindStatus  = "status" // powctl → manager: report stats
	KindBatch   = "batch"  // several messages in one frame (one write, one fault roll)

	// Journal replication (manager high availability). A standby's
	// follower opens a connection and sends KindJournalAck carrying the
	// sequence number its journal copy has reached; the leader replays
	// everything after it (or a full-snapshot reset entry if that history
	// is gone) and then streams each new journal entry as a
	// KindJournalAppend, acknowledged back entry by entry so the leader
	// can report replication lag. The stream is resumable: reconnecting
	// followers just resubscribe from their current sequence.
	KindJournalAppend = "journal_append" // leader → follower: one journal entry
	KindJournalAck    = "journal_ack"    // follower → leader: subscribe/ack at Seq

	// Capping federation (coordinator tier). A cabinet manager dials the
	// coordinator and subscribes with a KindCabReport (carrying its codec
	// advertisement, like a journal follower's subscribe), then streams
	// one report per control cycle: sensed aggregate power, uncapped
	// demand, the budget currently applied and its health tallies. The
	// coordinator replies with a hello naming the chosen codec and then
	// sends one KindCabBudget per coordinator cycle — the cabinet's new
	// power band. Budget grants double as coordinator heartbeats: a
	// cabinet that stops receiving them floors itself locally (the same
	// dead-man idea as agentd's failsafe), and a coordinator that stops
	// hearing reports re-divides the budget around the lost cabinet.
	KindCabReport = "cab_report" // cabinet → coordinator: aggregate sense + demand
	KindCabBudget = "cab_budget" // coordinator → cabinet: granted power band
)

// Envelope is the one-size wire message; Type selects which fields are
// meaningful. A single envelope type keeps decoding trivial and the
// protocol evolvable (unknown fields are ignored by encoding/json).
type Envelope struct {
	Type string `json:"type"`
	Node int    `json:"node,omitempty"`

	// hello
	MaxLevel int `json:"max_level,omitempty"`

	// command / ack: the command's sequence number, echoed back by the
	// ack so the manager can match acks to in-flight commands and retry
	// the unacknowledged ones.
	Seq uint64 `json:"seq,omitempty"`

	// sample
	Level      int     `json:"level"`
	CPUUtil    float64 `json:"cpu_util,omitempty"`
	MemUsed    uint64  `json:"mem_used,omitempty"`
	MemTotal   uint64  `json:"mem_total,omitempty"`
	NICBytes   uint64  `json:"nic_bytes,omitempty"`
	IntervalMS int64   `json:"interval_ms,omitempty"`
	Job        int     `json:"job,omitempty"`

	// status reply
	Stats *StatusReply `json:"stats,omitempty"`

	// Leadership epoch, for fencing across manager failovers. In a
	// manager→agent hello it announces the manager's epoch; in an
	// agent→manager hello it reports the highest epoch the agent has
	// seen, letting a deposed leader discover its own staleness. Zero
	// means "no HA configured" and disables fencing entirely.
	Epoch uint64 `json:"epoch,omitempty"`

	// journal_append: one replica journal entry, opaque to this layer
	// (internal/replica owns the schema).
	Entry json.RawMessage `json:"entry,omitempty"`

	// batch: the nested messages of a KindBatch frame. The manager's
	// per-node senders use it to coalesce a level command and a pending
	// heartbeat into one write — and over faultnet one fault roll instead
	// of two. Receivers process the nested envelopes in order; batches do
	// not nest (a Batch inside a Batch is ignored).
	Batch []Envelope `json:"batch,omitempty"`

	// Codec negotiation (link.go): Codecs is the client's offer on its
	// first frame, Codec the server's choice in its hello reply. Absent
	// means JSON, so a peer predating it never sees a binary frame.
	Codecs []string `json:"codecs,omitempty"`
	Codec  string   `json:"codec,omitempty"`

	// Capping federation fields (cab_report / cab_budget). Node carries
	// the cabinet index on both kinds; Seq numbers budget grants (echoed
	// in the next report so the coordinator sees which grant a cabinet
	// runs under). In a report, PowerW/DemandW are the cabinet's sensed
	// aggregate power and uncapped full-level demand, BudgetW/PHW the
	// band it is currently enforcing, Agents/Healthy its fleet tallies.
	// In a grant, BudgetW/PHW are the new band (P_L and P_H).
	PowerW  float64 `json:"p_w,omitempty"`
	DemandW float64 `json:"demand_w,omitempty"`
	BudgetW float64 `json:"budget_w,omitempty"`
	PHW     float64 `json:"ph_w,omitempty"`
	Agents  int     `json:"agents,omitempty"`
	Healthy int     `json:"healthy,omitempty"`
}

// Advertises reports whether the envelope's codec advertisement (its
// Codecs list) includes name.
func (e *Envelope) Advertises(name string) bool {
	for _, c := range e.Codecs {
		if c == name {
			return true
		}
	}
	return false
}

// StatusReply is a daemon's answer to a status request.
//
// Every field carries an `obs` tag naming the registry instrument it is
// populated from: the daemon chassis fills the reply by reflecting over
// these tags against its obs.Registry (see daemon.Chassis.Status), so
// adding a field here without backing it by a managerd instrument is
// caught by the registry-mapping test rather than silently reading zero
// forever.
type StatusReply struct {
	Agents        int     `json:"agents" obs:"agents"`
	Cycles        int     `json:"cycles" obs:"cycles"`
	GreenCycles   int     `json:"green_cycles" obs:"green_cycles"`
	YellowCycles  int     `json:"yellow_cycles" obs:"yellow_cycles"`
	RedCycles     int     `json:"red_cycles" obs:"red_cycles"`
	RedEntries    int     `json:"red_entries" obs:"red_entries"`
	DegradeOps    int     `json:"degrade_ops" obs:"degrade_ops"`
	RestoreOps    int     `json:"restore_ops" obs:"restore_ops"`
	BusyMicros    int64   `json:"busy_micros" obs:"busy_micros"`
	CPUUtilise    float64 `json:"cpu_utilisation" obs:"cpu_utilisation"`
	LastPowerW    float64 `json:"last_power_w" obs:"last_power_w"`
	ThresholdPLW  float64 `json:"pl_w" obs:"pl_w"`
	ThresholdPHW  float64 `json:"ph_w" obs:"ph_w"`
	DroppedStale  int     `json:"dropped_stale" obs:"dropped_stale"`
	CommandErrors int     `json:"command_errors" obs:"command_errors"`

	// Control-loop cost surfaced per Fig. 5: selection time accumulated
	// by the manager, and the sensing sweep (collection) time per cycle.
	SelectMicros      int64 `json:"select_micros" obs:"select_micros"`             // accumulated policy selection time
	LastCollectMicros int64 `json:"last_collect_micros" obs:"last_collect_micros"` // last cycle's reading-collection sweep
	CollectMicros     int64 `json:"collect_micros" obs:"collect_micros"`           // accumulated collection time

	// Fail-safe layer counters.
	Trained          bool    `json:"trained" obs:"trained"`                     // capping armed (learner trained, or fixed thresholds)
	LifetimePeakW    float64 `json:"lifetime_peak_w" obs:"lifetime_peak_w"`     // learner's lifetime observed peak
	CommandAcks      int     `json:"command_acks" obs:"command_acks"`           // commands acknowledged by agents
	CommandRetries   int     `json:"command_retries" obs:"command_retries"`     // unacked commands re-sent
	Reconciles       int     `json:"reconciles" obs:"reconciles"`               // drifted levels re-commanded
	Drifted          int     `json:"drifted" obs:"drifted"`                     // connected agents whose reported level ≠ last commanded
	HealthyNodes     int     `json:"healthy_nodes" obs:"healthy_nodes"`         // fresh sample within StaleAfter
	StaleNodes       int     `json:"stale_nodes" obs:"stale_nodes"`             // connected but sample older than StaleAfter
	LostNodes        int     `json:"lost_nodes" obs:"lost_nodes"`               // disconnected or silent beyond LostAfter
	QuarantinedNodes int     `json:"quarantined_nodes" obs:"quarantined_nodes"` // reconnect-flapping, excluded from A_candidate
	Quarantines      int     `json:"quarantines" obs:"quarantines"`             // quarantine entries over the run
	JournalWrites    int     `json:"journal_writes" obs:"journal_writes"`       // crash-recovery snapshots persisted

	// Fan-out layer counters (the concurrent actuation path).
	CoalescedCmds    int   `json:"coalesced_cmds" obs:"coalesced_cmds"`         // queued commands superseded before the write
	StaleConnErrors  int   `json:"stale_conn_errors" obs:"stale_conn_errors"`   // send failures on already-replaced connections
	DecodeErrors     int   `json:"decode_errors" obs:"decode_errors"`           // corrupt inbound frames tolerated and skipped
	Shards           int   `json:"shards" obs:"shards"`                         // node-state shards
	SamplesReceived  int64 `json:"samples_received" obs:"samples_received"`     // agent samples accepted over the wire
	LastCycleMicros  int64 `json:"last_cycle_micros" obs:"last_cycle_micros"`   // last control cycle's critical-path time
	MaxCycleMicros   int64 `json:"max_cycle_micros" obs:"max_cycle_micros"`     // worst control cycle so far
	LastFanoutMicros int64 `json:"last_fanout_micros" obs:"last_fanout_micros"` // last cycle's command fan-out completion time
	MaxFanoutMicros  int64 `json:"max_fanout_micros" obs:"max_fanout_micros"`   // worst fan-out so far

	// High-availability layer (replicated journal + leased leadership).
	Epoch              int   `json:"epoch" obs:"epoch"`                               // leadership epoch (0 = HA off)
	Leader             bool  `json:"leader" obs:"leader"`                             // still leading (false once deposed)
	ReplicaConns       int   `json:"replica_conns" obs:"replica_conns"`               // connected journal followers
	ReplicaLagEntries  int   `json:"replica_lag_entries" obs:"replica_lag_entries"`   // worst follower lag, in journal entries
	JournalAppends     int   `json:"journal_appends" obs:"journal_appends"`           // incremental journal entries committed
	FencedHellos       int   `json:"fenced_hellos" obs:"fenced_hellos"`               // hellos carrying a newer epoch than ours
	LastTakeoverMicros int64 `json:"last_takeover_micros" obs:"last_takeover_micros"` // leaderless time absorbed at our promotion

	// Capping federation (two-tier control plane, managerd's federate.go).
	Cabinet      int     `json:"cabinet" obs:"cabinet"`             // this manager's cabinet index under a coordinator
	Governed     bool    `json:"governed" obs:"governed"`           // running under a live coordinator grant
	BudgetGrants int     `json:"budget_grants" obs:"budget_grants"` // cab_budget grants applied
	BudgetFloors int     `json:"budget_floors" obs:"budget_floors"` // failsafe floors on coordinator silence
	DemandW      float64 `json:"demand_w" obs:"demand_w"`           // last cycle's uncapped full-level demand estimate
}

// SampleEnvelope builds a sample message from an agent reading.
func SampleEnvelope(r manager.AgentReading) Envelope {
	return Envelope{
		Type:       KindSample,
		Node:       int(r.ID),
		Level:      r.Level,
		MaxLevel:   r.MaxLevel,
		CPUUtil:    r.Delta.CPUUtil,
		MemUsed:    r.Delta.MemUsed,
		MemTotal:   r.Delta.MemTotal,
		NICBytes:   r.Delta.NICBytes,
		IntervalMS: r.Delta.Interval.Milliseconds(),
		Job:        int(r.Job),
	}
}

// Reading converts a sample envelope back into an agent reading.
func (e Envelope) Reading() manager.AgentReading {
	return manager.AgentReading{
		ID:       node.ID(e.Node),
		Level:    e.Level,
		MaxLevel: e.MaxLevel,
		Delta: procfs.Delta{
			Interval: time.Duration(e.IntervalMS) * time.Millisecond,
			CPUUtil:  e.CPUUtil,
			MemUsed:  e.MemUsed,
			MemTotal: e.MemTotal,
			NICBytes: e.NICBytes,
		},
		Job: workload.JobID(e.Job),
	}
}

// Conn wraps a byte stream with the wire protocol. Safe for one reader
// and one writer goroutine concurrently (the read and write paths own
// disjoint state); multiple concurrent writers must serialise externally.
type Conn struct {
	r   *bufio.Reader
	raw io.ReadWriteCloser

	// binWrite selects the writer's codec (the reader always
	// auto-detects). Atomic because negotiation may flip it from the
	// reader goroutine while the writer is mid-stream — which is safe,
	// since the switch happens on a frame boundary of the writer's next
	// Send.
	binWrite atomic.Bool

	// Reused scratch: encBuf backs binary encoding (writer-owned),
	// readBuf backs binary payloads and overlong JSON lines, both capped
	// (reader-owned). Steady-state traffic allocates nothing here.
	encBuf  []byte
	readBuf []byte
	hdr     [frameHeaderLen - 1]byte // binary frame header (reader-owned; a local would escape)

	// The non-blocking write side (TrySend), writer-owned: tw is the
	// stream's TryWrite, resolved on first use, and tail the bytes of a
	// frame the stream took only a prefix of.
	tw   tryWriter
	tail []byte

	// decodeFails counts consecutive recoverable decode errors, for the
	// fatal escalation described on maxDecodeFails.
	decodeFails int

	// Session state (link.go). heard is reader-owned: a frame has arrived.
	heard   bool
	offered bool        // Offer advertised binary; the peer's hello confirms it in RecvInto
	unhook  func() bool // Open's ctx hook, released by Close
}

// readBufSize fits the protocol's steady-state frames (a command is ~20
// bytes, a sample under 50 in binary and ~150 as JSON) instead of bufio's
// 4 KiB default, because a fleet holds one per connection end. Larger
// frames spill into readBuf on demand.
const readBufSize = 512

// NewConn wraps rw. Only the read side is buffered: Send encodes a whole
// frame and hands it to rw in one Write.
func NewConn(rw io.ReadWriteCloser) *Conn {
	return &Conn{r: bufio.NewReaderSize(rw, readBufSize), raw: rw}
}

// EnableBinary switches the write side to the binary codec, once the
// handshake (link.go) has settled on it. The remote reader needs no
// warning: frames self-identify.
func (c *Conn) EnableBinary() { c.binWrite.Store(true) }

// Send encodes one message and writes it: a binary frame once
// EnableBinary has been called, a JSON line before. A kind the binary
// codec does not know is an error there, and nothing is written. One
// message is exactly one Write on the underlying stream, after the
// unsent tail of a frame TrySend started, if there is one.
func (c *Conn) Send(e Envelope) error {
	b, err := c.encode(&e)
	if err != nil {
		return err
	}
	if err := c.Flush(); err != nil {
		return err
	}
	_, err = c.raw.Write(b)
	return err
}

// TrySend is Send for a writer that must not block: it writes e now or
// declines, writing nothing. What "now" allows is the stream's call: a
// stream with a TryWrite method (faultnet's links) takes the whole frame
// or nothing; a TCP connection takes what its socket buffer has room for
// (unix only); any other stream always declines. A frame the socket took
// only a prefix of counts as sent: its tail stays on the Conn, Pending
// reports it, the next Send or Flush writes it first, and TrySend
// declines until then.
//
// done reports whether e was dealt with — written, or failed as Send
// would fail (err set; the stream is then as unusable as after a failed
// Send). !done means declined: nothing was written and e is still the
// caller's to send.
func (c *Conn) TrySend(e Envelope) (done bool, err error) {
	if len(c.tail) > 0 {
		return false, nil
	}
	if c.tw == nil {
		c.tw = tryWriterOf(c.raw)
	}
	if _, ok := c.tw.(never); ok {
		return false, nil
	}
	b, err := c.encode(&e)
	if err != nil {
		return true, err
	}
	n, err := c.tw.TryWrite(b)
	switch {
	case err != nil:
		return true, err
	case n == 0:
		return false, nil
	case n < len(b):
		c.tail = append(c.tail[:0], b[n:]...)
	}
	return true, nil
}

// Pending reports whether a frame TrySend started still has bytes to
// write; Flush or the next Send writes them.
func (c *Conn) Pending() bool { return len(c.tail) > 0 }

// Flush writes the unsent tail of a frame TrySend started, blocking as
// Send does; without one it does nothing.
func (c *Conn) Flush() error {
	if len(c.tail) == 0 {
		return nil
	}
	_, err := c.raw.Write(c.tail)
	c.tail = c.tail[:0]
	return err
}

// encode returns e as one frame in the write side's codec. A binary frame
// lives in the reused encode buffer until the next encode.
func (c *Conn) encode(e *Envelope) ([]byte, error) {
	if !c.binWrite.Load() {
		// Marshalled by value: a pointer handed to json would move every
		// Send's envelope to the heap, binary ones included.
		b, err := json.Marshal(*e)
		if err != nil {
			return nil, fmt.Errorf("wire: marshal: %w", err)
		}
		return append(b, '\n'), nil
	}
	buf, err := AppendFrame(c.encBuf[:0], e)
	c.encBuf = buf[:0]
	return buf, err
}

// tryWriter is a stream's non-blocking write: all of p, a prefix of it,
// or — (0, nil) — nothing.
type tryWriter interface {
	TryWrite(p []byte) (int, error)
}

// never is the tryWriter of a stream that cannot write without blocking.
type never struct{}

func (never) TryWrite([]byte) (int, error) { return 0, nil }

// tryWriterOf resolves rw's non-blocking write: its own TryWrite, else the
// socket's (tryWriterOfSocket), else never.
func tryWriterOf(rw io.ReadWriteCloser) tryWriter {
	if tw, ok := rw.(tryWriter); ok {
		return tw
	}
	if tw := tryWriterOfSocket(rw); tw != nil {
		return tw
	}
	return never{}
}

// SendBatch encodes several messages as one wire frame, written once.
// A single-element batch is sent as a plain envelope (no wrapping); an
// empty batch is a no-op. This is the manager's batched encode path: the
// per-node sender goroutines hand it whatever accumulated in the node's
// outbox (newest command, pending ping) so a slow cycle costs one write
// per node, never one write per queued message.
func (c *Conn) SendBatch(envs []Envelope) error {
	switch len(envs) {
	case 0:
		return nil
	case 1:
		return c.Send(envs[0])
	}
	return c.Send(Envelope{Type: KindBatch, Batch: envs})
}

// Recv reads one message. io.EOF signals a clean close.
func (c *Conn) Recv() (Envelope, error) {
	var e Envelope
	err := c.RecvInto(&e)
	return e, err
}

// RecvInto reads one message into e (reset first), auto-detecting the
// frame codec from its first byte. Readers on hot paths call this with a
// reused envelope so steady-state traffic decodes without allocating.
//
// A *DecodeError with Recoverable() true reports a frame that failed to
// decode — corrupt checksum, unparseable JSON line — while the stream
// stayed synchronised: the caller may count it and keep receiving. After
// maxDecodeFails consecutive failures the error turns fatal, bounding
// how long a desynchronised stream can masquerade as a noisy one. Any
// other error (including a fatal DecodeError) ends the connection.
//
// A peer's hello confirming an Offer takes effect here, before the caller
// sees the frame: from then on this end writes binary.
func (c *Conn) RecvInto(e *Envelope) error {
	*e = Envelope{}
	b, err := c.r.ReadByte()
	if err != nil {
		return err
	}
	if b == frameMagic {
		err = c.recvBinary(e)
	} else {
		_ = c.r.UnreadByte()
		err = c.recvJSON(e)
	}
	if err == nil {
		c.decodeFails, c.heard = 0, true
		if c.offered && e.Type == KindHello && e.Codec == CodecBinary {
			c.EnableBinary()
		}
		return nil
	}
	var de *DecodeError // escapes through errors.As: declared on the error path only
	if errors.As(err, &de) {
		c.decodeFails++
		if c.decodeFails >= maxDecodeFails {
			de.Fatal = true
		}
	}
	return err
}

// maxLineLen bounds a JSON line as maxFramePayload bounds a binary frame,
// with room for the field names JSON spells out, so the JSON form of any
// frame the binary codec carries still fits.
const maxLineLen = maxFramePayload + 4<<10

// recvJSON reads one newline-delimited JSON envelope. Lines longer than
// the bufio buffer spill into the connection's reused read buffer, up to
// maxLineLen: a longer line has lost its framing, and the error is fatal.
func (c *Conn) recvJSON(e *Envelope) error {
	line, err := c.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		buf := c.readBuf[:0]
		for {
			n := len(buf) + len(line)
			if n > maxLineLen {
				return &DecodeError{Codec: CodecJSON, Fatal: true, Err: fmt.Errorf("line exceeds %d-byte cap", maxLineLen)}
			}
			if n > cap(buf) { // grown here, not by append, so the cap bounds the buffer too
				buf = append(make([]byte, 0, min(max(2*cap(buf), n), maxLineLen)), buf...)
				c.readBuf = buf
			}
			buf = append(buf, line...)
			if err != bufio.ErrBufferFull {
				break
			}
			line, err = c.r.ReadSlice('\n')
		}
		line = buf
	}
	if err != nil {
		if len(line) == 0 {
			return err
		}
		// A final unterminated line still decodes.
	}
	if uerr := json.Unmarshal(line, e); uerr != nil {
		return &DecodeError{Codec: CodecJSON, Err: fmt.Errorf("%q: %w", truncate(line), uerr)}
	}
	return nil
}

// Close closes the underlying stream.
func (c *Conn) Close() error {
	if c.unhook != nil {
		c.unhook()
	}
	return c.raw.Close()
}

// SetWriteDeadline bounds subsequent Sends when the underlying stream
// supports write deadlines (net.Conn does); on plain byte streams it is a
// no-op. The manager daemon uses this to stop a stalled agent connection
// from blocking the control cycle. After a deadline error the stream's
// write state is undefined (a message may be half-written) — the caller
// must close the connection rather than keep sending on it.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	if d, ok := c.raw.(interface{ SetWriteDeadline(time.Time) error }); ok {
		return d.SetWriteDeadline(t)
	}
	return nil
}

func truncate(b []byte) string {
	const max = 80
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}
