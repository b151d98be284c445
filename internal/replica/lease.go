package replica

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// DefaultLeaseEvery is the renewal period used when a Lease does not set
// one.
const DefaultLeaseEvery = 25 * time.Millisecond

// LeaseState is the content of the lease file: who leads, at which
// epoch, and when they last proved liveness.
type LeaseState struct {
	Epoch     uint64    `json:"epoch"`
	Holder    string    `json:"holder"`
	RenewedAt time.Time `json:"renewed_at"`
}

// ErrClaimed is Claim's refusal: another claimant took the epoch first.
var ErrClaimed = errors.New("already claimed")

// Lease is a file-based leadership lease. The leader rewrites it every
// Every; standbys poll it and declare the leader dead once RenewedAt is
// staler than their miss budget allows. Writes are atomic (tmp+rename)
// so readers never observe a torn lease.
type Lease struct {
	Path  string
	Every time.Duration
}

// Period returns the renewal period, defaulting when unset.
func (l *Lease) Period() time.Duration {
	if l.Every > 0 {
		return l.Every
	}
	return DefaultLeaseEvery
}

// Read loads the current lease state.
func (l *Lease) Read() (LeaseState, error) {
	b, err := os.ReadFile(l.Path)
	if err != nil {
		return LeaseState{}, err
	}
	var st LeaseState
	if err := json.Unmarshal(b, &st); err != nil {
		return LeaseState{}, fmt.Errorf("replica: lease decode: %w", err)
	}
	return st, nil
}

// Write atomically replaces the lease file.
func (l *Lease) Write(st LeaseState) error {
	b, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("replica: lease marshal: %w", err)
	}
	tmp, err := os.CreateTemp(dirOf(l.Path), ".lease-*")
	if err != nil {
		return fmt.Errorf("replica: lease temp: %w", err)
	}
	if _, err := tmp.Write(append(b, '\n')); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("replica: lease write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("replica: lease close: %w", err)
	}
	if err := os.Rename(tmp.Name(), l.Path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("replica: lease rename: %w", err)
	}
	return nil
}

// Claim takes the epoch after floor by exclusively creating <Path>.e<N>,
// naming holder: of claimants over one floor one wins, and the rest get
// ErrClaimed, which names the winner. A claim file older than one period was
// left by a claimant that died before writing the lease, so its epoch joins
// the floor. A win prunes the claim files below the one before it.
func (l *Lease) Claim(floor uint64, holder string) (uint64, error) {
	names, _ := filepath.Glob(l.Path + ".e*")
	claims := make([]uint64, len(names))
	for i, name := range names {
		_, _ = fmt.Sscanf(filepath.Base(name)[len(filepath.Base(l.Path)):], ".e%d", &claims[i])
		if fi, err := os.Stat(name); err == nil && time.Since(fi.ModTime()) > l.Period() {
			floor = max(floor, claims[i])
		}
	}
	n, name := floor+1, fmt.Sprintf("%s.e%d", l.Path, floor+1)
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if errors.Is(err, os.ErrExist) {
		b, _ := os.ReadFile(name)
		return 0, fmt.Errorf("epoch %d %w by %s", n, ErrClaimed, b)
	} else if err != nil {
		return 0, fmt.Errorf("replica: claim: %w", err)
	}
	_, _ = f.WriteString(holder)
	f.Close()
	for _, c := range claims {
		if c+1 < n {
			os.Remove(fmt.Sprintf("%s.e%d", l.Path, c))
		}
	}
	return n, nil
}
