package shieldd

// SawTransportLoss reports whether the client has noticed that its
// current transport is gone. A stream client notices when its reader
// hits the close and poisons the session, so the next request re-dials
// instead of being written into a dead socket. A datagram client hears
// nothing when the server drops it (only retransmit exhaustion tells), so
// for it there is nothing to wait for and this reports true.
func (c *Client) SawTransportLoss() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err != nil || c.tc.unreliable()
}
