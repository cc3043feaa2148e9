"""Put the benchmark's modules (and through them the checkout's src) on the path."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
