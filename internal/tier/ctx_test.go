package tier

import "context"

// untilClosed is the ctx spelling of a test's stop channel: a context
// that ends when stop closes (every test here closes its channel, which
// is also what releases the goroutine).
func untilClosed(stop <-chan struct{}) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-stop
		cancel()
	}()
	return ctx
}
