package core

import "unsafe"

// A slab's first chunk holds slabFirstBytes and each later one twice the one
// before, up to slabChunkBytes: a small build or stream session takes a few
// small chunks, a big one amortizes allocation over big ones.
const (
	slabFirstBytes = 512
	slabChunkBytes = 16 << 10
)

// slabKeepChunks bounds the chunks a slab keeps when its kernel goes back to
// the pool (1 MB per slab): a kernel that served a bigger build drops the
// rest, so one long stream session does not pin its memory in the pool for
// every later build.
const slabKeepChunks = 64

// slab hands out slices carved from fixed-size chunks it keeps: the arenas
// of a kernel. Chunks are never reallocated once taken, so a carved slice
// stays valid until reset, and reset makes every chunk free again for the
// next build, which reuses them in order before allocating new ones. The
// zero value is an empty slab.
type slab[T any] struct {
	chunks [][]T // every chunk taken; chunks[:used] have been carved from
	used   int
	free   []T // the uncarved tail of chunks[used-1]
}

// carve returns a slice of length and capacity n. Its contents are whatever
// the chunk held before: callers write every element they read. A request
// larger than the biggest chunk gets its own allocation.
func (s *slab[T]) carve(n int) []T {
	if len(s.free) < n {
		var zero T
		elem := int(unsafe.Sizeof(zero))
		if n > slabChunkBytes/elem {
			return make([]T, n)
		}
		// Skip kept chunks too small for n; the next build starts over.
		for s.used < len(s.chunks) && len(s.chunks[s.used]) < n {
			s.used++
		}
		if s.used == len(s.chunks) {
			size := slabFirstBytes / elem
			if k := len(s.chunks); k > 0 {
				size = 2 * len(s.chunks[k-1])
			}
			size = min(max(size, n), slabChunkBytes/elem)
			s.chunks = append(s.chunks, make([]T, size))
		}
		s.free = s.chunks[s.used]
		s.used++
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// reset makes every chunk free for reuse, keeping at most slabKeepChunks of
// them. Nothing carved before may be used afterwards.
func (s *slab[T]) reset() {
	if len(s.chunks) > slabKeepChunks {
		clear(s.chunks[slabKeepChunks:])
		s.chunks = s.chunks[:slabKeepChunks]
	}
	s.used, s.free = 0, nil
}
