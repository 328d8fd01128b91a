"""CXL link timing."""
