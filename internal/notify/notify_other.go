//go:build !linux

package notify

import "errors"

// Watch is not available on this platform: it returns a nil channel and
// errors.ErrUnsupported, and the caller polls.
func Watch(path string, match func(name string) bool) (<-chan struct{}, func(), error) {
	return nil, func() {}, errors.ErrUnsupported
}
