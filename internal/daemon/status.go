package daemon

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"sync"
	"time"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/wire"
)

// The status path. Every wire.StatusReply field carries an obs tag naming
// the instrument it mirrors, and Status fills the reply from the registry
// by those tags: each field has one definition, the instrument, whichever
// daemon answers, and a field added to the reply is served by every daemon
// that registers its instrument without any of them copying it by hand.

// statusField is one StatusReply field: its instrument's name, byte offset
// and store kind. The layout is a property of the type, so it is computed
// once per process and the reflection walk is not paid per probe.
type statusField struct {
	name   string
	offset uintptr
	kind   reflect.Kind
}

var statusFields = sync.OnceValue(func() []statusField {
	rt := reflect.TypeOf(wire.StatusReply{})
	var fields []statusField
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch k := f.Type.Kind(); k {
		case reflect.Int, reflect.Int64, reflect.Float64, reflect.Bool:
			fields = append(fields, statusField{name: f.Tag.Get("obs"), offset: f.Offset, kind: k})
		default:
			panic(fmt.Sprintf("daemon: StatusReply.%s has kind %s, which no instrument can fill", f.Name, k))
		}
	}
	return fields
})

// statusOf fills a status reply from reg: each field from the instrument
// its obs tag names, zero where reg registers none.
func statusOf(reg *obs.Registry) wire.StatusReply {
	var rep wire.StatusReply
	base := unsafe.Pointer(&rep)
	for _, f := range statusFields() {
		v, ok := reg.Value(f.name)
		if !ok {
			continue
		}
		p := unsafe.Add(base, f.offset)
		switch f.kind {
		case reflect.Int:
			*(*int)(p) = int(v)
		case reflect.Int64:
			*(*int64)(p) = int64(v)
		case reflect.Float64:
			*(*float64)(p) = v
		case reflect.Bool:
			*(*bool)(p) = v != 0
		}
	}
	return rep
}

// Status refreshes the computed gauges (Refresh) and reads the daemon's
// status off its registry: every reply field whose instrument the daemon
// registers, zero for the rest. A status probe is answered with it.
func (c *Chassis) Status() wire.StatusReply {
	c.Refresh()
	return statusOf(c.reg)
}

// QueryStatus probes a manager or coordinator daemon for its status. Both
// answer the same probe; a coordinator's envelope is marked by its Node
// (fedd.CoordinatorNode) and carries one Batch row per child, so a CLI can
// render whichever daemon it dialled. The probe and its reply are JSON.
func QueryStatus(addr string, timeout time.Duration) (wire.Envelope, error) {
	// ctx's deadline bounds the dial and, by closing the connection, the rest.
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	conn, err := wire.Open(ctx, func(ctx context.Context) (net.Conn, error) { return wire.DialTCP(ctx, addr) })
	if err != nil {
		return wire.Envelope{}, err
	}
	defer conn.Close()
	if err := conn.Send(wire.Envelope{Type: wire.KindStatus}); err != nil {
		return wire.Envelope{}, err
	}
	env, err := conn.Recv()
	if err != nil {
		if ctx.Err() != nil {
			err = fmt.Errorf("daemon: no status from %s within %v", addr, timeout)
		}
		return wire.Envelope{}, err
	}
	if env.Type != wire.KindStatus || env.Stats == nil {
		return wire.Envelope{}, fmt.Errorf("daemon: unexpected reply %q", env.Type)
	}
	return env, nil
}
