package agentd

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/manager"
	"repro/internal/power"
	"repro/internal/wire"
)

var errInjectedWrite = errors.New("write: injected failure")

// scriptedConn is the agent's end of a net.Pipe: it records that it was
// closed, and can be told to fail every further write while its read stays
// parked.
type scriptedConn struct {
	net.Conn
	closed     atomic.Bool
	failWrites atomic.Bool
}

func (c *scriptedConn) Write(p []byte) (int, error) {
	if c.failWrites.Load() {
		return 0, errInjectedWrite
	}
	return c.Conn.Write(p)
}

func (c *scriptedConn) Close() error {
	c.closed.Store(true)
	return c.Conn.Close()
}

// TestSessionExitPaths: a session is one goroutine (plus, on an active
// agent, its writer), and however it ends — the context is cancelled while
// the reader is parked, the manager closes, a stale-epoch hello fences it,
// the writer's send fails — Run returns, the connection is closed, a
// PushReading afterwards is refused and nothing is left running: not the
// writer, not the dead-man watchdog.
func TestSessionExitPaths(t *testing.T) {
	type rig struct {
		a      *Agent
		cancel context.CancelFunc
		mgr    *wire.Conn    // the manager's end
		conn   *scriptedConn // the agent's end
	}
	causes := []struct {
		name       string
		activeOnly bool
		end        func(r rig)
		check      func(t *testing.T, r rig, err error)
	}{
		{name: "context cancelled",
			end: func(r rig) { r.cancel() },
			check: func(t *testing.T, r rig, err error) {
				if err != nil {
					t.Errorf("Run = %v, want nil on a cancelled context", err)
				}
			}},
		{name: "peer closes",
			end: func(r rig) { r.mgr.Close() },
			check: func(t *testing.T, r rig, err error) {
				if err == nil {
					t.Error("Run = nil after the manager closed the connection")
				}
			}},
		{name: "stale epoch fences",
			end: func(r rig) {
				_ = r.mgr.Send(wire.Envelope{Type: wire.KindHello, Epoch: 5})
				_ = r.mgr.Send(wire.Envelope{Type: wire.KindHello, Epoch: 3})
				_ = r.mgr.Send(wire.Envelope{Type: wire.KindCommand, Seq: 1, Level: 0}) // may race the close
			},
			check: func(t *testing.T, r rig, err error) {
				if !errors.Is(err, errStaleManager) || r.a.StaleEpochRejects() != 1 || r.a.MaxEpoch() != 5 {
					t.Errorf("Run = %v with %d stale rejects at epoch %d, want the fence, 1 and 5", err, r.a.StaleEpochRejects(), r.a.MaxEpoch())
				}
				if r.a.CommandsApplied() != 0 {
					t.Error("the fenced manager's command was applied")
				}
			}},
		{name: "writer's send fails", activeOnly: true,
			end: func(r rig) { r.conn.failWrites.Store(true) },
			check: func(t *testing.T, r rig, err error) {
				if !errors.Is(err, errInjectedWrite) {
					t.Errorf("Run = %v, want the failed send", err)
				}
			}},
	}
	for _, passive := range []bool{true, false} {
		mode := map[bool]string{true: "passive", false: "active"}[passive]
		for _, c := range causes {
			if passive && c.activeOnly {
				continue
			}
			t.Run(mode+"/"+c.name, func(t *testing.T) {
				base := runtime.NumGoroutine()
				server, client := net.Pipe()
				r := rig{mgr: wire.NewConn(server), conn: &scriptedConn{Conn: client}}
				var err error
				r.a, err = New(Config{
					NodeID: 1, SampleEvery: 2 * time.Millisecond, TickEvery: time.Millisecond,
					Model: power.TianheNode(), Seed: 1, FailsafeAfter: 1 << 20,
					Passive: passive, MaxLevel: 9, InitialLevel: 9,
					Apply: func(level int) (int, error) { return level, nil },
					Dial:  func(context.Context) (net.Conn, error) { return r.conn, nil },
				})
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				r.cancel = cancel
				ran := make(chan error, 1)
				go func() { ran <- r.a.Run(ctx) }()

				// The manager's end drains the agent's stream (a pipe write
				// parks until it is read) until the connection is gone.
				hello, gone := make(chan struct{}), make(chan struct{})
				go func() {
					defer close(gone)
					for first := true; ; first = false {
						if _, err := r.mgr.Recv(); err != nil {
							return
						}
						if first {
							close(hello)
						}
					}
				}()
				select {
				case <-hello:
				case <-time.After(5 * time.Second):
					t.Fatal("no hello")
				}
				for deadline := time.Now().Add(5 * time.Second); passive && !r.a.Connected(); time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("passive session never went live")
					}
				}

				c.end(r)
				select {
				case err = <-ran:
				case <-time.After(5 * time.Second):
					t.Fatal("Run never returned")
				}
				c.check(t, r, err)
				if !r.conn.closed.Load() {
					t.Error("Run returned with the connection open")
				}
				if r.a.Connected() || r.a.PushReading(manager.AgentReading{ID: 1, Level: 9, MaxLevel: 9}) == nil {
					t.Error("PushReading accepted after the session ended")
				}
				r.mgr.Close()
				<-gone
				for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("%d goroutines after Run returned, %d before it started", runtime.NumGoroutine(), base)
					}
				}
			})
		}
	}
}
