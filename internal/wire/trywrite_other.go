//go:build !unix

package wire

import "io"

// tryWriterOfSocket has no non-blocking socket write off unix: TrySend
// declines there, and every frame takes the blocking path.
func tryWriterOfSocket(io.ReadWriteCloser) tryWriter { return nil }
