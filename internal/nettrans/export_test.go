package nettrans

// PendingLen counts the entries of t's pending table.
func (t *Transport) PendingLen() int {
	n := 0
	t.pending.Range(func(_, _ any) bool { n++; return true })
	return n
}

// InboundConns counts the live inbound connections t tracks.
func (t *Transport) InboundConns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.inbound)
}
