package dram

// Request is one memory access queued at a vault controller.
type Request struct {
	Addr  int64
	Size  int
	Write bool
}

// Window is a small FR-FCFS scheduling window in front of a Device.
//
// The paper (§4.1.2) notes that conventional memory controllers can reorder
// incoming requests to prioritize open rows, but that during partitioning
// "the distance of accesses to different locations within a row is
// typically too long for this scheduling window" — which is why hardware
// permutability is needed. Window models exactly that limited capability:
// among at most Cap buffered requests, a request hitting a currently open
// row is serviced first (first-ready); otherwise the oldest request is
// serviced (first-come first-served).
type Window struct {
	dev     *Device
	cap     int
	pending []Request
	// ServicedNs accumulates the latency of all serviced requests.
	ServicedNs float64
}

// NewWindow creates a scheduling window of the given capacity. A capacity
// of 1 degenerates to strict FCFS.
func NewWindow(dev *Device, capacity int) *Window {
	if capacity < 1 {
		panic("dram: window capacity must be >= 1")
	}
	return &Window{dev: dev, cap: capacity, pending: make([]Request, 0, capacity)}
}

// Push enqueues a request, servicing one request first if the window is
// full. It returns the latency of any serviced request (0 if none).
func (w *Window) Push(r Request) float64 {
	var lat float64
	if len(w.pending) == w.cap {
		lat = w.serviceOne()
	}
	w.pending = append(w.pending, r)
	return lat
}

// Flush services all buffered requests and returns their total latency.
func (w *Window) Flush() float64 {
	var total float64
	for len(w.pending) > 0 {
		total += w.serviceOne()
	}
	return total
}

// serviceOne issues the first-ready request, falling back to the oldest.
func (w *Window) serviceOne() float64 {
	pick := 0
	for i, r := range w.pending {
		bi, row := w.dev.locate(r.Addr)
		if w.dev.banks[bi].openRow == row {
			pick = i
			break
		}
	}
	r := w.pending[pick]
	w.pending = append(w.pending[:pick], w.pending[pick+1:]...)
	lat := w.dev.AccessRange(r.Addr, r.Size, r.Write)
	w.ServicedNs += lat
	return lat
}
