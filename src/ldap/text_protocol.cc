#include "ldap/text_protocol.h"

#include "common/strings.h"
#include "ldap/ldif.h"
#include "ldap/result.h"

namespace metacomm::ldap {

namespace {

/// RESULT is a single-line frame, but a Status message can carry
/// newlines (e.g. a multi-line parse diagnostic quoted verbatim). An
/// unescaped newline would split the RESULT line in two and
/// desynchronize the client, which parses replies as
/// first-line/remainder. Escape backslash first so the encoding is
/// invertible; UnescapeResultMessage restores the original text.
std::string EscapeResultMessage(std::string_view message) {
  std::string out;
  out.reserve(message.size());
  for (char c : message) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string UnescapeResultMessage(std::string_view message) {
  std::string out;
  out.reserve(message.size());
  for (size_t i = 0; i < message.size(); ++i) {
    if (message[i] != '\\' || i + 1 == message.size()) {
      out.push_back(message[i]);
      continue;
    }
    switch (message[++i]) {
      case '\\': out.push_back('\\'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      default:  // Unknown escape: keep both characters verbatim.
        out.push_back('\\');
        out.push_back(message[i]);
    }
  }
  return out;
}

/// "RESULT <code> <message>".
std::string ResultLine(const Status& status) {
  return "RESULT " +
         std::to_string(static_cast<int>(StatusToResult(status))) + " " +
         EscapeResultMessage(status.ok() ? "success" : status.ToString()) +
         "\n";
}

/// Extracts "key: value" from a request line; empty when absent.
std::string HeaderValue(const std::vector<std::string>& lines,
                        std::string_view key) {
  for (const std::string& line : lines) {
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (EqualsIgnoreCase(Trim(line.substr(0, colon)), key)) {
      return Trim(line.substr(colon + 1));
    }
  }
  return "";
}

/// The request body after the first line (used for LDIF payloads).
std::string Body(const std::string& request) {
  size_t newline = request.find('\n');
  if (newline == std::string::npos) return "";
  return request.substr(newline + 1);
}

Status ParseResultLine(const std::string& line) {
  // "RESULT <code> <message...>". The message is everything after the
  // single space following the code, verbatim — re-splitting it on
  // spaces would collapse runs of spaces the server sent.
  constexpr std::string_view kPrefix = "RESULT ";
  if (!StartsWith(line, kPrefix)) {
    return Status::Internal("malformed protocol reply: " + line);
  }
  size_t code_end = line.find(' ', kPrefix.size());
  std::string_view code_text =
      code_end == std::string::npos
          ? std::string_view(line).substr(kPrefix.size())
          : std::string_view(line).substr(kPrefix.size(),
                                          code_end - kPrefix.size());
  // Checked parse: a run of digits longer than the int range must be
  // rejected, not silently wrapped the way atoi would.
  std::optional<int64_t> code = ParseInt64(code_text);
  if (!code.has_value() || *code > 127) {
    return Status::Internal("malformed result code: " + line);
  }
  std::string message =
      code_end == std::string::npos
          ? std::string()
          : UnescapeResultMessage(
                std::string_view(line).substr(code_end + 1));
  if (*code == 0) return Status::Ok();
  return ResultToStatus(static_cast<ResultCode>(*code), std::move(message));
}

}  // namespace

std::string BusyReply() {
  return ResultLine(Status::Conflict("busy"));  // StatusToResult -> 51.
}

std::string FramingErrorReply() {
  return ResultLine(Status::InvalidArgument("wire framing violation"));
}

TextProtocolHandler::TextProtocolHandler(LdapService* service)
    : service_(service) {}

std::string TextProtocolHandler::Handle(const std::string& request) {
  std::vector<std::string> lines = Split(request, '\n');
  if (lines.empty() || Trim(lines[0]).empty()) {
    return ResultLine(Status::InvalidArgument("empty request"));
  }
  std::string first = Trim(lines[0]);
  std::string verb = ToUpper(Split(first, ' ').front());
  // The first line may carry a header after the verb
  // ("DELETE dn: cn=X"); strip the verb so HeaderValue sees it.
  lines[0] = verb.size() < first.size()
                 ? Trim(first.substr(verb.size()))
                 : std::string();

  if (verb == "BIND") {
    StatusOr<Dn> dn = Dn::Parse(HeaderValue(lines, "dn"));
    if (!dn.ok()) return ResultLine(dn.status());
    BindRequest bind{*dn, HeaderValue(lines, "password")};
    StatusOr<std::string> principal = service_->Bind(bind);
    if (!principal.ok()) return ResultLine(principal.status());
    context_.principal = *principal;
    return ResultLine(Status::Ok());
  }
  if (verb == "UNBIND") {
    context_.principal.clear();
    return ResultLine(Status::Ok());
  }
  if (verb == "ADD") {
    StatusOr<std::vector<LdifRecord>> records = ParseLdif(Body(request));
    if (!records.ok()) return ResultLine(records.status());
    if (records->size() != 1 ||
        (*records)[0].op != UpdateOp::kAdd) {
      return ResultLine(
          Status::InvalidArgument("ADD expects one LDIF content record"));
    }
    return ResultLine(
        service_->Add(context_, AddRequest{(*records)[0].entry}));
  }
  if (verb == "DELETE") {
    StatusOr<Dn> dn = Dn::Parse(HeaderValue(lines, "dn"));
    if (!dn.ok()) return ResultLine(dn.status());
    return ResultLine(service_->Delete(context_, DeleteRequest{*dn}));
  }
  if (verb == "MODIFY") {
    StatusOr<std::vector<LdifRecord>> records = ParseLdif(Body(request));
    if (!records.ok()) return ResultLine(records.status());
    if (records->size() != 1 ||
        (*records)[0].op != UpdateOp::kModify) {
      return ResultLine(Status::InvalidArgument(
          "MODIFY expects one LDIF changetype:modify record"));
    }
    return ResultLine(service_->Modify(
        context_, ModifyRequest{(*records)[0].dn, (*records)[0].mods}));
  }
  if (verb == "MODRDN") {
    StatusOr<Dn> dn = Dn::Parse(HeaderValue(lines, "dn"));
    if (!dn.ok()) return ResultLine(dn.status());
    StatusOr<Rdn> rdn = Rdn::Parse(HeaderValue(lines, "newrdn"));
    if (!rdn.ok()) return ResultLine(rdn.status());
    ModifyRdnRequest rename;
    rename.dn = *dn;
    rename.new_rdn = *rdn;
    rename.delete_old_rdn = HeaderValue(lines, "deleteoldrdn") != "0";
    return ResultLine(service_->ModifyRdn(context_, rename));
  }
  if (verb == "SEARCH") {
    StatusOr<Dn> base = Dn::Parse(HeaderValue(lines, "base"));
    if (!base.ok()) return ResultLine(base.status());
    SearchRequest search;
    search.base = *base;
    std::string scope = ToLower(HeaderValue(lines, "scope"));
    if (scope == "base") {
      search.scope = Scope::kBase;
    } else if (scope == "one") {
      search.scope = Scope::kOneLevel;
    } else if (scope.empty() || scope == "sub") {
      search.scope = Scope::kSubtree;
    } else {
      return ResultLine(Status::InvalidArgument("bad scope: " + scope));
    }
    std::string filter_text = HeaderValue(lines, "filter");
    if (!filter_text.empty()) {
      StatusOr<Filter> filter = Filter::Parse(filter_text);
      if (!filter.ok()) return ResultLine(filter.status());
      search.filter = std::move(*filter);
    }
    std::string attrs = HeaderValue(lines, "attrs");
    if (!attrs.empty()) {
      for (std::string& attr : SplitAndTrim(attrs, ',')) {
        if (!attr.empty()) search.attributes.push_back(std::move(attr));
      }
    }
    std::string limit = HeaderValue(lines, "limit");
    if (!limit.empty()) {
      // Checked parse: atoll on a long digit string would silently
      // overflow into a bogus (possibly zero/negative) limit.
      std::optional<int64_t> parsed = ParseInt64(limit);
      if (!parsed.has_value()) {
        return ResultLine(
            Status::InvalidArgument("bad limit: " + limit));
      }
      search.size_limit = static_cast<size_t>(*parsed);
    }
    StatusOr<SearchResult> result = service_->Search(context_, search);
    if (!result.ok()) return ResultLine(result.status());
    std::string out = ResultLine(Status::Ok());
    out += ToLdif(result->entries);
    return out;
  }
  if (verb == "COMPARE") {
    StatusOr<Dn> dn = Dn::Parse(HeaderValue(lines, "dn"));
    if (!dn.ok()) return ResultLine(dn.status());
    CompareRequest compare;
    compare.dn = *dn;
    compare.attribute = HeaderValue(lines, "attr");
    compare.value = HeaderValue(lines, "value");
    Status status = service_->Compare(context_, compare);
    // Compare is three-valued on the wire, as in LDAP proper: result
    // code 6 (compareTrue) or 5 (compareFalse) — detected via the
    // canonical marker, not by matching the message text.
    if (status.ok()) {
      return "RESULT " +
             std::to_string(static_cast<int>(ResultCode::kCompareTrue)) +
             " compare true\nTRUE\n";
    }
    if (IsCompareFalse(status)) {
      return ResultLine(status) + "FALSE\n";
    }
    return ResultLine(status);
  }
  return ResultLine(Status::InvalidArgument("unknown verb: " + verb));
}

TextProtocolClient::TextProtocolClient(Transport transport)
    : transport_(std::move(transport)) {}

StatusOr<std::string> TextProtocolClient::Roundtrip(
    const std::string& request) {
  std::string reply = transport_(request);
  size_t newline = reply.find('\n');
  std::string first =
      newline == std::string::npos ? reply : reply.substr(0, newline);
  METACOMM_RETURN_IF_ERROR(ParseResultLine(first));
  return newline == std::string::npos ? std::string()
                                      : reply.substr(newline + 1);
}

Status TextProtocolClient::Add(const OpContext& ctx,
                               const AddRequest& request) {
  (void)ctx;  // Authentication state lives in the handler's session.
  return Roundtrip("ADD\n" + ToLdif(request.entry)).status();
}

Status TextProtocolClient::Delete(const OpContext& ctx,
                                  const DeleteRequest& request) {
  (void)ctx;
  return Roundtrip("DELETE dn: " + request.dn.ToString() + "\n").status();
}

Status TextProtocolClient::Modify(const OpContext& ctx,
                                  const ModifyRequest& request) {
  (void)ctx;
  std::string body = "MODIFY\ndn: " + request.dn.ToString() +
                     "\nchangetype: modify\n";
  for (const Modification& mod : request.mods) {
    switch (mod.type) {
      case Modification::Type::kAdd:
        body += "add: " + mod.attribute + "\n";
        break;
      case Modification::Type::kDelete:
        body += "delete: " + mod.attribute + "\n";
        break;
      case Modification::Type::kReplace:
        body += "replace: " + mod.attribute + "\n";
        break;
    }
    for (const std::string& value : mod.values) {
      AppendLdifLine(mod.attribute, value, &body);
    }
    body += "-\n";
  }
  return Roundtrip(body).status();
}

Status TextProtocolClient::ModifyRdn(const OpContext& ctx,
                                     const ModifyRdnRequest& request) {
  (void)ctx;
  return Roundtrip("MODRDN dn: " + request.dn.ToString() +
                   "\nnewrdn: " + request.new_rdn.ToString() +
                   "\ndeleteoldrdn: " +
                   (request.delete_old_rdn ? "1" : "0") + "\n")
      .status();
}

StatusOr<SearchResult> TextProtocolClient::Search(
    const OpContext& ctx, const SearchRequest& request) {
  (void)ctx;
  std::string message = "SEARCH base: " + request.base.ToString() + "\n";
  switch (request.scope) {
    case Scope::kBase:
      message += "scope: base\n";
      break;
    case Scope::kOneLevel:
      message += "scope: one\n";
      break;
    case Scope::kSubtree:
      message += "scope: sub\n";
      break;
  }
  message += "filter: " + request.filter.ToString() + "\n";
  if (!request.attributes.empty()) {
    message += "attrs: " + Join(request.attributes, ",") + "\n";
  }
  if (request.size_limit > 0) {
    message += "limit: " + std::to_string(request.size_limit) + "\n";
  }
  METACOMM_ASSIGN_OR_RETURN(std::string body, Roundtrip(message));
  SearchResult result;
  if (Trim(body).empty()) return result;
  METACOMM_ASSIGN_OR_RETURN(std::vector<LdifRecord> records,
                            ParseLdif(body));
  result.entries.reserve(records.size());
  for (LdifRecord& record : records) {
    result.entries.push_back(std::move(record.entry));
  }
  return result;
}

Status TextProtocolClient::Compare(const OpContext& ctx,
                                   const CompareRequest& request) {
  (void)ctx;
  // A compareFalse reply (RESULT 5) surfaces from Roundtrip as the
  // canonical CompareFalseStatus() — the marker travels as a result
  // code, so no message-string matching happens on either side.
  METACOMM_ASSIGN_OR_RETURN(
      std::string body,
      Roundtrip("COMPARE dn: " + request.dn.ToString() + "\nattr: " +
                request.attribute + "\nvalue: " + request.value + "\n"));
  if (Trim(body) == "TRUE") return Status::Ok();
  if (Trim(body) == "FALSE") return CompareFalseStatus();
  return Status::Internal("malformed COMPARE reply: " + body);
}

void TextProtocolClient::Unbind() {
  // Fire-and-forget: the handler clears its session principal; the
  // reply is RESULT 0.
  (void)Roundtrip("UNBIND\n");
}

StatusOr<std::string> TextProtocolClient::Bind(const BindRequest& request) {
  METACOMM_RETURN_IF_ERROR(
      Roundtrip("BIND dn: " + request.dn.ToString() + "\npassword: " +
                request.password + "\n")
          .status());
  return request.dn.ToString();
}

}  // namespace metacomm::ldap
