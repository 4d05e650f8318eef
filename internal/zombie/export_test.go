package zombie

// HistoryPeers is every peer a history saw in the archives, sorted, for
// the package's external tests.
func HistoryPeers(h *History) []PeerID { return h.peers }
